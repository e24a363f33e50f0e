from coarsedim.group_spaces.amalgams import (
    amalgam_group_model,
    amalgam_projection,
    plain_free_product_z2_z3,
    z4_amalgam_z6,
    z_amalgam_2z,
)
from coarsedim.group_spaces.groups import enumerate_ball
from test_groups import assert_group_laws


def assert_normal_form(model, form):
    """``form`` is a fixed point of ``normalize`` on its letters, and each of
    its letters is a nontrivial coset's transversal representative."""
    assert model.normalize(model.letters_of(form)) == form
    for fname, rep in form[1]:
        ops = model.factors[fname]
        assert not ops.in_c(rep), (fname, rep)
        assert ops.transversal(rep) == rep, (fname, rep)


class TestNormalForms:
    def test_identity_has_empty_presentation(self):
        m = plain_free_product_z2_z3()
        assert m.identity_form() == (0, ())
        assert_normal_form(m, m.identity_form())

    def test_subgroup_element_has_no_letters(self):
        m = z_amalgam_2z()
        # a^2 = z: c part 1, no letters
        form = m.normalize([("A", 2)])
        assert form == (1, ())
        assert_normal_form(m, form)

    def test_abab_in_plain_free_product(self):
        m = plain_free_product_z2_z3()
        form = m.normalize([("A", 1), ("B", 1), ("A", 1), ("B", 1)])
        assert form == (0, (("A", 1), ("B", 1), ("A", 1), ("B", 1)))

    def test_a_cubed_in_z_amalgam(self):
        m = z_amalgam_2z()
        form = m.normalize([("A", 3)])
        assert form == (1, (("A", 1),))  # a^3 = z * a

    def test_cancellation(self):
        m = z_amalgam_2z()
        # a b b~ a~ = e
        letters = [("A", 1), ("B", 1), ("B", -1), ("A", -1)]
        assert m.normalize(letters) == (0, ())

    def test_reconstruction_on_ball(self):
        for model in (plain_free_product_z2_z3(), z_amalgam_2z(), z4_amalgam_z6()):
            group = amalgam_group_model(model)
            for elem in enumerate_ball(group, 4):
                assert_normal_form(model, elem)

    def test_alternation_in_normal_forms(self):
        model = z4_amalgam_z6()
        group = amalgam_group_model(model)
        for elem in enumerate_ball(group, 5):
            _, seq = elem
            for a, b in zip(seq, seq[1:]):
                assert a[0] != b[0]

    def test_group_models_valid(self):
        for model in (plain_free_product_z2_z3(), z_amalgam_2z(), z4_amalgam_z6()):
            assert_group_laws(amalgam_group_model(model))

    def test_z4_z6_central_element_order(self):
        m = z4_amalgam_z6()
        z = m.normalize([("A", 2)])
        assert z == (1, ())
        assert m.multiply(z, z) == (0, ())
        assert m.normalize([("B", 3)]) == z  # a^2 = b^3


class TestProjection:
    def test_identity_maps_to_empty_word(self):
        m = plain_free_product_z2_z3()
        rep = amalgam_projection(m, radius=3)
        assert rep["projection"](m.identity_form()) == ()

    def test_generator_maps_to_single_letter(self):
        m = plain_free_product_z2_z3()
        rep = amalgam_projection(m, radius=3)
        g = m.normalize([("A", 1)])
        word = rep["projection"](g)
        assert len(word) == 1

    def test_one_lipschitz_on_z2_z3_ball(self):
        rep = amalgam_projection(plain_free_product_z2_z3(), radius=4)
        assert rep["pairs_checked"] > 0
        assert rep["lipschitz_ok"], rep["max_generator_ratio"]

    def test_one_lipschitz_on_z_amalgam(self):
        rep = amalgam_projection(z_amalgam_2z(), radius=4)
        assert rep["lipschitz_ok"], rep["max_generator_ratio"]

    def test_one_lipschitz_on_z4_z6(self):
        rep = amalgam_projection(z4_amalgam_z6(), radius=4)
        assert rep["lipschitz_ok"], rep["max_generator_ratio"]
