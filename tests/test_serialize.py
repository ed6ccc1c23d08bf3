import numpy as np
import pytest

from burstkin.serialize import (
    write_density_csv,
    write_modes_csv,
    write_pairs_csv,
    write_pmf_csv,
    write_trace_csv,
    write_trajectory_csv,
)

EDGE = [0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, float("inf"), float("-inf"),
        float("nan"), 1.0 / 3.0, 0.1, 2.0 ** 53 + 2.0, 1e-300, 123456789.125]


def _oracle(header, rows):
    """The per-field writer: %.17g of float(x) per float, str per int."""
    lines = [header] + [",".join(row) for row in rows]
    return ("\n".join(lines) + "\n").encode("utf-8")


def _f(x):
    return "%.17g" % float(x)


def _column(n, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
    x[:len(EDGE)] = EDGE[:n]
    return x


# 4096 rows is one full chunk; 4097 and 9000 cross chunk boundaries
@pytest.mark.parametrize("n", [0, 1, 5, 4096, 4097, 9000])
def test_chunked_writers_match_the_per_field_oracle(tmp_path, n):
    a, b, c = _column(n, 1), _column(n, 2)[::-1], _column(n + 1, 3)
    p = tmp_path / "out.csv"

    write_pmf_csv(p, a)
    assert p.read_bytes() == _oracle("n,p", ((str(i), _f(v)) for i, v in enumerate(a)))

    write_trace_csv(p, a, b)
    assert p.read_bytes() == _oracle("t,l1_distance", ((_f(x), _f(y)) for x, y in zip(a, b)))

    write_density_csv(p, b, a)
    assert p.read_bytes() == _oracle("x,u", ((_f(x), _f(y)) for x, y in zip(b, a)))

    write_pairs_csv(p, "y,margin", a, b)
    assert p.read_bytes() == _oracle("y,margin", ((_f(x), _f(y)) for x, y in zip(a, b)))

    # times carry a leading t = 0 entry
    write_trajectory_csv(p, c, a, b)
    assert p.read_bytes() == _oracle(
        "k,t,y_pre,y_post",
        ((str(k + 1), _f(c[k + 1]), _f(a[k]), _f(b[k])) for k in range(n)))

    kinds = ["max" if i % 3 else "min" for i in range(n)]
    roots = [float(v) for v in a]
    write_modes_csv(p, roots, kinds)
    assert p.read_bytes() == _oracle("x_root,kind", ((_f(x), k) for x, k in zip(roots, kinds)))

