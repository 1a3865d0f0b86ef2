"""A pinned digest of exact Fedosov outputs on seeded charts of every kind.

Each case solves one seeded chart and hashes a canonical dump of r, of
``check_flatness``, of one flat section and of the star coefficients of two
seeded observables.  A jet enters the dump as its key, ``valid_order``,
``den`` and ``terms`` (each packed monomial key unpacked to its
multi-index), so any changed coefficient or claimed validity moves the
digest.  A change that moves one on purpose re-pins it and says why.
"""

import hashlib

import pytest

from fedquant import sampling
from fedquant.fedosov import check_flatness, flat_section, solve_r, star
from fedquant.jets import unpack_key
from fedquant.suites import _CHARTS

# (kind, n, jet order, N, chart rng tag) -> sha256 of the canonical dump;
# the last chart is the Darboux n = 2 one whose residual does not vanish
PINNED = {
    ("flat", 1, 9, 3, ("flat", 1, 0)):
        "8af22bc90192a997268b00d55a2415113fec836c1aee3ddc89ec95d2595534f2",
    ("darboux", 1, 9, 3, ("darboux", 1, 0)):
        "27c776ede0a0b6bf88c170b383b76ffcd72892c93d5a21885c6a0a24ea0547e3",
    ("cotangent", 1, 11, 3, ("cotangent", 1, 0)):
        "8085c0d9a581b581ffd04fd5c48f7d92519edfd1e88ec03b928c4568fbd90872",
    ("kaehler", 1, 12, 3, ("kaehler", 1, 0)):
        "a3ca596f500f2cf57a05a1922f0d182ab0cc7dfa14aa1ef4554dbbf7b402cc70",
    ("flat", 2, 7, 2, ("flat", 2, 0)):
        "57452647a54d666149c9ff5a74e4ddadf292b86e6b67481785793d5fd9a86adf",
    ("darboux", 2, 9, 2, ("darboux", 2, 0)):
        "46b20fc705daeeb5ecfe9c3dfd0bf066ccd7fc74f8c7140fbd015c97c0404593",
    ("cotangent", 2, 9, 2, ("cotangent", 2, 0)):
        "7426b7b139d40c135317c0930f0ea92f7c5850321c3b1bb819e6e5c4cba4cb7f",
    ("kaehler", 2, 11, 2, ("kaehler", 2, 0)):
        "e6e5b03e96fc5d45d0dd4cc26bd5fd738f8d1cad42310b7a67f1170b676d311a",
    ("darboux", 2, 9, 2, ("darb", 0)):
        "d860d39c5d66c371534bd8c2ac3c7883bbc35f43f5005826015f21ea3c670dee",
}


def _jet(jet):
    dim = jet.chart.dim
    return (jet.valid_order, jet.den,
            tuple((d, unpack_key(key, dim), re, im)
                  for d, key, re, im in jet.terms))


def _form(form):
    return sorted((key, _jet(jet)) for key, jet in form.terms.items())


def canonical_dump(kind, n, order, n_hbar, tag):
    rng = sampling.make_rng(tag)
    state = solve_r(_CHARTS[kind](rng, n, order), n_hbar)
    rng = sampling.make_rng(("digest", kind, n))
    chart = state.geometry.chart
    f, g = (sampling.random_polynomial(rng, chart, order, degree=2, terms=3)
            for _ in range(2))
    s = star(f, g, state)
    return repr((_form(state.r), sorted(check_flatness(state).items()),
                 _form(flat_section(f, state)),
                 [_jet(c) for c in s.coefficients]))


@pytest.mark.parametrize("case", list(PINNED), ids=lambda c: "-".join(
    map(str, c[:4] + c[4])))
def test_outputs_match_pinned_digest(case):
    dump = canonical_dump(*case)
    assert hashlib.sha256(dump.encode()).hexdigest() == PINNED[case]
