"""The I+-/J+- pair forms give the same floats in every layout of the angles,
and ``Operator.closed_form`` finds a replaced module attribute.

``Operator.grid_angles`` takes cos, sin and cos(2 theta) once on its (K, 3, 7)
stencil axes and evaluates the pair form on broadcast views of them, while
``pair_bound`` at the returned angles evaluates it on scalars.  The search's
printed value is only the value at its printed angles if every layout gives
``==``-equal floats, which is what these tests hold.
"""

import numpy as np
import pytest

from bell3q import ConsistencyError, Strengths, i_plus_minus, j_plus_minus, mermin
from bell3q import observables
from bell3q.observables import OPERATORS

from references import ORTH

FUNCTIONS = {
    "pair_bound:mermin": lambda st, a: OPERATORS["mermin"].pair_bound(0.83, 0.41, st, a),
    "pair_bound:svetlichny": lambda st, a: OPERATORS["svetlichny"].pair_bound(0.83, 0.41, st, a),
    "i_plus_minus": lambda st, a: np.stack(np.broadcast_arrays(*i_plus_minus(st, a))),
    "j_plus_minus": lambda st, a: np.stack(np.broadcast_arrays(*j_plus_minus(st, a))),
}


def _cases():
    rng = np.random.default_rng(31)
    for i in range(6):
        st = Strengths.from_iterable(rng.uniform(0.0, 1.0, 6))
        if i == 5:
            st = Strengths.equal(0.9, 0.6, 0.7)
        # lattice points, the cube's edges and faces, and points off the lattice
        axes = np.concatenate([[0.0, np.pi / 2, np.pi], rng.uniform(0.0, np.pi, 4)])
        yield st, rng.permuted(np.tile(axes, (3, 1)), axis=1)


@pytest.mark.parametrize("name", sorted(FUNCTIONS))
def test_every_layout_gives_equal_floats(name):
    f = FUNCTIONS[name]
    for st, axes in _cases():            # axes (3, 7): each angle's values
        w = axes.shape[1]
        grid = f(st, np.meshgrid(*axes, indexing="ij", sparse=True))
        stacked = axes[None].repeat(2, axis=0)   # a stencil of two grids, (2, 3, w)
        views = f(st, (stacked[:, 0, :, None, None], stacked[:, 1, None, :, None],
                       stacked[:, 2, None, None, :]))
        for i, j, k in np.ndindex(w, w, w):
            point = (axes[0, i], axes[1, j], axes[2, k])
            scalar = np.asarray(f(st, point))
            zero_d = np.asarray(f(st, tuple(np.asarray(a) for a in point)))
            assert np.array_equal(zero_d, scalar), (point, zero_d, scalar)
            assert np.array_equal(grid[..., i, j, k], scalar), (point, grid[..., i, j, k], scalar)
            for g in range(2):
                assert np.array_equal(views[..., g, i, j, k], scalar), (point, g, scalar)


@pytest.mark.parametrize("operator", ["mermin", "svetlichny"])
def test_the_search_stencil_gives_the_scalar_floats(operator):
    """Trig taken once on (K, 3, w) axes, as ``grid_angles`` takes it, then viewed
    on each grid, gives the floats of ``pair_bound`` at each point."""
    op = OPERATORS[operator]
    for st, axes in _cases():
        form = op.closed_form("pair_form")(st, 0.83, 0.41)
        stacked = axes[None]
        trig = (np.cos(stacked), np.sin(stacked), np.cos(2 * stacked))
        values = form.pair(*form.from_trig(*(
            (t[:, 0, :, None, None], t[:, 1, None, :, None], t[:, 2, None, None, :])
            for t in trig)))[0]
        for index in np.ndindex(values.shape):
            point = tuple(float(axes[p, index[p]]) for p in range(3))
            assert values[index] == op.pair_bound(0.83, 0.41, st, point), point


def test_scalar_angles_give_python_floats():
    st = Strengths(0.9, 0.5, 0.8, 0.7, 0.6, 0.95)
    assert i_plus_minus(Strengths.uniform(0.0), ORTH) == (0.0, 0.0)
    for value in (*i_plus_minus(st, ORTH), *j_plus_minus(st, (0.3, 1.2, 2.0)),
                  OPERATORS["mermin"].pair_bound(0.8, 0.3, st, ORTH),
                  OPERATORS["svetlichny"].pair_bound(0.8, 0.3, st, (0.0, np.pi, 1.0))):
        assert type(value) is float


@pytest.mark.parametrize("operator, letter", [("mermin", "I"), ("svetlichny", "J")])
@pytest.mark.parametrize("angles", [ORTH, np.meshgrid(*[[0.4, np.pi / 2]] * 3, sparse=True)])
def test_a_negative_square_names_itself(operator, letter, angles):
    """Each clamped square raises with its own name and its most negative value."""
    form = OPERATORS[operator].closed_form("pair_form")(Strengths.uniform(0.5))
    form.radicand = (-1.0, 0.0, 0.0)   # the inner radicand is -sin(ty)^2
    with pytest.raises(ConsistencyError, match=rf"^inner radicand of the {letter}\+- closed "
                                               r"form evaluated to -1\.000e\+00 < -1e-10$"):
        form.plus_minus(angles)
    form.radicand = (0.0, 0.0, 0.0)    # no swing: plus^2 = minus^2 = base
    form.coefficients = (-2.0,) + (0.0,) * (len(form.coefficients) - 1)
    with pytest.raises(ConsistencyError, match=rf"^{letter}_plus\^2 evaluated to -2\.000e\+00"):
        form.plus_minus(angles)
    form.radicand = (1.0, 0.0, 0.0)    # swing = scale R_X R_X' sin(tx) sin(ty) > base
    form.coefficients = (1e-3,) + (0.0,) * (len(form.coefficients) - 1)
    with pytest.raises(ConsistencyError, match=rf"^{letter}_minus\^2 evaluated to -"):
        form.plus_minus(angles)


def test_closed_form_sees_a_replaced_module_attribute(monkeypatch):
    op = OPERATORS["mermin"]
    assert op.closed_form("equal_strength_angles")(1.0, 0.0) == (0.0, np.pi / 2, np.pi / 2)
    monkeypatch.setattr(mermin, "equal_strength_angles", lambda s1, s2: (0.1, 0.2, 0.3))
    assert op.closed_form("equal_strength_angles")(1.0, 0.0) == (0.1, 0.2, 0.3)


def test_closed_form_imports_its_module_once(monkeypatch):
    op = OPERATORS["svetlichny"]
    op.closed_form("bias_max")

    def no_import(*args):
        raise AssertionError("closed_form imported its module again")
    monkeypatch.setattr(observables, "import_module", no_import)
    assert op.closed_form("bias_max")(Strengths.uniform(1.0)) == 0.0
