"""Entry-wise block assembly against the row-by-row assembly it replaced:
every linalg.sparse_blocks call that the engine makes on these paths
gives the rows of reference.sparse_blocks_by_rows on the rows views of the
same blocks, with the keys of each row in the same order.  The paths are
piece_matrix on the suite, nodal, W = 0 nodal and three-line corpora, the
Cech differentials at B = 1-3, GlobalSections.mult off the saturated path
on skew lines and three points, SheafMap.from_blocks and the join of
ext_gamma_dims, over F_32003 and Q."""

from collections import Counter

import pytest

from mfcat import cohomology, hypersurface, linalg, mf, ring
from mfcat.cohomology import (GlobalSections, cech_cohomology_at,
                              cech_total_diff)
from mfcat.hypersurface import coker_module, ext_gamma_dims
from mfcat.mf import SheafMap, TwistSum, mapping_complex

import reference
from reference import block_rows, sparse_blocks_by_rows
from test_cohomology import skew_lines, three_points
from test_entry_writers import CORPORA, FIELDS


@pytest.fixture
def checked(monkeypatch):
    """Route the engine's sparse_blocks calls through a check against the
    reference; returns a Counter of checked calls with at least one block,
    by calling module."""
    calls = Counter()

    def wrap(module):
        def check(row_dims, col_dims, blocks):
            blocks = list(blocks)
            got = linalg.sparse_blocks(row_dims, col_dims, blocks)
            want = sparse_blocks_by_rows(
                row_dims, col_dims, [(r, c, block_rows(blk))
                                     for r, c, blk in blocks])
            assert got[1] == want[1]
            assert [list(row.items()) for row in got[0]] == \
                [list(row.items()) for row in want[0]]
            calls[module.__name__.split(".")[-1]] += bool(blocks)
            return got
        return check

    for module in (ring, cohomology, mf, hypersurface):
        monkeypatch.setattr(module, "sparse_blocks", wrap(module))
    return calls


@pytest.mark.parametrize("field", FIELDS.values(), ids=list(FIELDS))
@pytest.mark.parametrize("name", ["p1-small", "p2-small", "nodal",
                                  "nodal-w0", "three-lines"])
def test_piece_matrix_and_cech(checked, name, field):
    ctx, objs = CORPORA[name](field)
    objs = objs[:3]
    rings = [ctx.ring] if ctx.W.is_zero() else [ctx.ring, ctx.y_ring()]
    for E in objs:
        for R in rings:
            for t in (0, 2):
                R.piece_matrix(E.e1, t)
                R.piece_matrix(E.e0, t)
    assert checked["ring"]
    for E, F in [(objs[0], objs[1]), (objs[2], objs[0])]:
        C = mapping_complex(E, F)
        ctx.ring.piece_matrix(C.e1, 0)
        ctx.ring.piece_matrix(C.e0, 0)
        for B in (1, 2, 3):
            cech_total_diff(C, 0, B)
    for B in (1, 2, 3):
        for p in range(ctx.ring.nvars):
            cech_cohomology_at(ctx.ring, -2, p, B)
    assert checked["cohomology"]


@pytest.mark.parametrize("field", FIELDS.values(), ids=list(FIELDS))
@pytest.mark.parametrize("space, src, dst, entries", [
    (skew_lines, [0, 1], [1, 2], [["x", "0"], ["x^2 + 3*z*w", "y - 2*w"]]),
    (three_points, [1, 2], [2, 3],
     [["x", "7"], ["x^2 + 2*y^2", "x - 5*y"]])],
    ids=["skew-lines", "three-points"])
def test_sections_off_the_saturated_path(checked, space, src, dst, entries,
                                         field):
    ctx = space(field)
    gs = GlobalSections(ctx)
    f = SheafMap(ctx.ring, TwistSum(src), TwistSum(dst), [
        [ctx.ring.poly(s) for s in row] for row in entries])
    assert not gs.monomial_path([*f.src, *f.dst])
    rows, ncols = gs.sheafmap_rows(f)
    assert ncols == sum(gs.dim(a) for a in f.src) and any(rows)
    # one placement per mult off the path, one for the whole map
    assert checked["cohomology"] >= 2


@pytest.mark.parametrize("field", FIELDS.values(), ids=list(FIELDS))
def test_from_blocks_and_ext_join(checked, field):
    _ctx, objs = CORPORA["a1-affine"](field)
    for E in objs[:3]:
        for F in objs[:3]:
            reference.mapping_complex(E, F)
            N = coker_module(F)
            ext_gamma_dims(E, N, range(0, 3))
    assert checked["mf"] and checked["hypersurface"]
