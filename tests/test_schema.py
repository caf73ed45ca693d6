import pytest
from conftest import check_edge_conformance

from sekg import schema as schema_module
from sekg.errors import SchemaError
from sekg.schema import (
    DEFAULT_SCHEMA,
    RelationDef,
    RelationKind,
    build_default_schema,
)

CORE_CONCEPTS = [
    "Attacker",
    "AttackMotivation",
    "AttackGoal",
    "SocialEngineeringInformation",
    "AttackStrategy",
    "AttackMethod",
    "AttackTarget",
    "AttackMedium",
    "HumanVulnerability",
    "EffectMechanism",
    "AttackConsequence",
]
AUXILIARY_CONCEPTS = ["SubGoal", "CommonSkill", "AuxiliaryTrick"]

# name, domain, range, inverse
ASSERTED_TABLE = [
    ("motivate", "AttackMotivation", "Attacker", "motivated_by"),
    ("motivated_by", "Attacker", "AttackMotivation", "motivate"),
    ("gather_and_use", "Attacker", "SocialEngineeringInformation", None),
    ("craft_and_perform", "Attacker", "AttackMethod", None),
    ("formulate", "Attacker", "AttackStrategy", None),
    ("to_achieve", "AttackMethod", "AttackGoal", None),
    ("guided_by", "AttackMethod", "AttackStrategy", None),
    ("apply_to", "AttackMethod", "AttackTarget", "suffer"),
    ("performed_through", "AttackMethod", "AttackMedium", None),
    ("to_exploit", "AttackMethod", "HumanVulnerability", None),
    ("based_on", "AttackStrategy", "SocialEngineeringInformation", None),
    ("suffer", "AttackTarget", "AttackMethod", "apply_to"),
    ("have_vul", "AttackTarget", "HumanVulnerability", None),
    ("interacted_through", "AttackTarget", "AttackMedium", None),
    ("bring_out", "AttackTarget", "AttackConsequence", None),
    ("take_effected_by", "HumanVulnerability", "EffectMechanism", None),
    ("explain", "EffectMechanism", "AttackConsequence", None),
    ("feed_back_to", "AttackConsequence", "AttackGoal", None),
    ("to_satisfy", "AttackGoal", "AttackMotivation", None),
    ("subgoal_of", "SubGoal", "AttackGoal", None),
    ("with_skill", "AttackMethod", "CommonSkill", None),
    ("with_trick", "AttackMethod", "AuxiliaryTrick", None),
]


def test_core_concept_roster():
    core = [c for c in DEFAULT_SCHEMA.concepts.values() if not c.auxiliary]
    aux = [c for c in DEFAULT_SCHEMA.concepts.values() if c.auxiliary]
    assert sorted(c.name for c in core) == sorted(CORE_CONCEPTS)
    assert sorted(c.name for c in aux) == sorted(AUXILIARY_CONCEPTS)


@pytest.mark.parametrize(
    "synonym, canonical",
    [
        ("SocialEngineer", "Attacker"),
        ("Victim", "AttackTarget"),
        ("AttackPurpose", "AttackGoal"),
        ("SocialInteraction", "AttackMedium"),
    ],
)
def test_concept_synonyms(synonym, canonical):
    assert DEFAULT_SCHEMA.concept(synonym).name == canonical


@pytest.mark.parametrize("name, domain, range_, inverse", ASSERTED_TABLE)
def test_asserted_relation_table(name, domain, range_, inverse):
    rel = DEFAULT_SCHEMA.relation(name)
    assert rel.kind is RelationKind.ASSERTED
    assert rel.domain == domain
    assert rel.range == range_
    assert rel.inverse_of == inverse


def test_asserted_relation_count():
    assert len(DEFAULT_SCHEMA.asserted_relations()) == len(ASSERTED_TABLE) == 22


@pytest.mark.parametrize(
    "name, parent",
    [
        ("incent", "motivate"),
        ("drive", "motivate"),
        ("incented_by", "motivated_by"),
        ("driven_by", "motivated_by"),
    ],
)
def test_subproperty_axioms(name, parent):
    assert DEFAULT_SCHEMA.effective_relations(name) == (name, parent)


@pytest.mark.parametrize(
    "name, inverse",
    [
        ("motivate", "motivated_by"),
        ("apply_to", "suffer"),
        ("incent", "incented_by"),
        ("drive", "driven_by"),
    ],
)
def test_inverse_axioms(name, inverse):
    assert DEFAULT_SCHEMA.relation(name).inverse_of == inverse
    assert DEFAULT_SCHEMA.relation(inverse).inverse_of == name


@pytest.mark.parametrize(
    "alias, canonical, swapped",
    [
        ("conduct", "craft_and_perform", False),
        ("bring_about", "bring_out", False),
        ("exploited_by", "to_exploit", True),
        ("craft_and_perform", "craft_and_perform", False),
    ],
)
def test_relation_normalization(alias, canonical, swapped):
    assert DEFAULT_SCHEMA.normalize_relation(alias) == (canonical, swapped)


def test_relation_resolves_stored_names_only():
    for alias in ("conduct", "exploited_by", "bring_about"):
        with pytest.raises(SchemaError, match=f"unknown relation: '{alias}'"):
            DEFAULT_SCHEMA.relation(alias)


def test_write_table_maps_stored_names_to_themselves():
    stored = [*DEFAULT_SCHEMA.relations, *(r.name for r in DEFAULT_SCHEMA.derived_relations)]
    for name in stored:
        assert DEFAULT_SCHEMA.write_table[name] == (
            name, False, linear_relation_scan(DEFAULT_SCHEMA, name)
        ), name
    aliases = {*schema_module.RELATION_ALIASES, *schema_module.SWAPPED_ALIASES}
    assert set(DEFAULT_SCHEMA.write_table) == {*stored, *aliases}
    with pytest.raises(SchemaError, match="unknown relation: 'bogus_rel'"):
        DEFAULT_SCHEMA.write_table["bogus_rel"]


def test_derived_relation_roster():
    derived = {r.name: r for r in DEFAULT_SCHEMA.derived_relations}
    assert sorted(derived) == [
        "attack",
        "in_the_same_organization",
        "same_affiliation",
        "same_attack_organization",
        "same_origin_attack",
    ]
    for r in derived.values():
        assert r.kind is RelationKind.DERIVED
        assert r.irreflexive
    assert derived["attack"].inverse_of is None
    for name in (
        "same_attack_organization",
        "same_affiliation",
        "same_origin_attack",
        "in_the_same_organization",
    ):
        assert derived[name].inverse_of == name


def test_conformance_verdicts():
    ok = check_edge_conformance(DEFAULT_SCHEMA, "Attacker", "craft_and_perform", "AttackMethod")
    assert ok is None
    bad_domain = check_edge_conformance(
        DEFAULT_SCHEMA, "AttackTarget", "craft_and_perform", "AttackMethod"
    )
    assert "domain mismatch" in bad_domain
    bad_range = check_edge_conformance(
        DEFAULT_SCHEMA, "Attacker", "craft_and_perform", "HumanVulnerability"
    )
    assert "range mismatch" in bad_range


def test_conformance_resolves_synonyms():
    assert check_edge_conformance(DEFAULT_SCHEMA, "AttackMethod", "apply_to", "Victim") is None


def test_unknown_names_raise():
    with pytest.raises(SchemaError):
        DEFAULT_SCHEMA.concept("Bogus")
    with pytest.raises(SchemaError):
        DEFAULT_SCHEMA.relation("bogus_rel")


def linear_relation_scan(schema, name):
    """First relation named ``name``: asserted table first, then derived."""
    for rel in (*schema.relations.values(), *schema.derived_relations):
        if rel.name == name:
            return rel
    return None


def test_relation_lookup_matches_linear_scan():
    schema = DEFAULT_SCHEMA
    for name in [*schema.relations, *(r.name for r in schema.derived_relations)]:
        assert schema.relation(name) is linear_relation_scan(schema, name)


def test_asserted_relation_wins_name_clash(monkeypatch):
    derived = schema_module._derived_relations()
    clash = RelationDef("apply_to", "Attacker", "Attacker", RelationKind.DERIVED)
    monkeypatch.setattr(schema_module, "_derived_relations", lambda: (*derived, clash))
    schema = build_default_schema()
    assert schema.relation("apply_to") is linear_relation_scan(schema, "apply_to")
    assert schema.relation("apply_to").kind is RelationKind.ASSERTED
    assert schema.relation("attack").kind is RelationKind.DERIVED


def test_taxonomy_labels():
    assert "real_person" in DEFAULT_SCHEMA.concept("Attacker").taxonomy_labels
    assert "virtual_role" in DEFAULT_SCHEMA.concept("Attacker").taxonomy_labels
    assert len(DEFAULT_SCHEMA.concept("HumanVulnerability").taxonomy_labels) == 6
    assert len(DEFAULT_SCHEMA.concept("EffectMechanism").taxonomy_labels) == 6
    assert "human_based" in DEFAULT_SCHEMA.concept("AttackMethod").taxonomy_labels


def test_build_is_deterministic():
    a = build_default_schema()
    b = build_default_schema()
    assert a.concepts == b.concepts
    assert a.relations == b.relations
    assert a.derived_relations == b.derived_relations
    assert a.write_table == b.write_table
