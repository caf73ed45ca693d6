import itertools

import pytest
from conftest import CONCEPT_ROWS, RELATION_ROWS, check_edge_conformance, stored_relation

from sekg.errors import SchemaError
from sekg.schema import (
    CONCEPTS,
    RELATION_ALIASES,
    RELATIONS,
    SWAPPED_ALIASES,
    RelationKind,
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
    core = {c.name for c in CONCEPTS.values() if not c.auxiliary}
    aux = {c.name for c in CONCEPTS.values() if c.auxiliary}
    assert sorted(core) == sorted(CORE_CONCEPTS)
    assert sorted(aux) == sorted(AUXILIARY_CONCEPTS)


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
    assert CONCEPTS[synonym] is CONCEPTS[canonical]
    assert CONCEPTS[synonym].name == canonical


def test_concept_table_maps_names_and_synonyms():
    assert CONCEPTS == {n: c for c in CONCEPT_ROWS for n in (c.name, *c.synonyms)}


@pytest.mark.parametrize("name, domain, range_, inverse", ASSERTED_TABLE)
def test_asserted_relation_table(name, domain, range_, inverse):
    stored, swapped, rel = RELATIONS[name]
    assert (stored, swapped) == (name, False)
    assert rel.kind is RelationKind.ASSERTED
    assert rel.domain == domain
    assert rel.range == range_
    assert rel.inverse_of == inverse


def test_asserted_relation_count():
    asserted = {rel for _, _, rel in RELATIONS.values() if rel.kind is RelationKind.ASSERTED}
    assert len(asserted) == len(ASSERTED_TABLE) == 22


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
    rel = RELATIONS[name][2]
    assert rel.kind is RelationKind.SUBPROPERTY
    assert rel.subproperty_of == parent
    assert RELATIONS[parent][2].subproperty_of is None


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
    assert RELATIONS[name][2].inverse_of == inverse
    assert RELATIONS[inverse][2].inverse_of == name


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
    stored, flipped, rel = RELATIONS[alias]
    assert (stored, flipped) == (canonical, swapped)
    assert rel is RELATIONS[canonical][2]


def test_write_table_maps_stored_names_to_themselves():
    stored = [r.name for r in RELATION_ROWS]
    for name in stored:
        assert RELATIONS[name] == (name, False, stored_relation(name)), name
    aliases = {*RELATION_ALIASES, *SWAPPED_ALIASES}
    assert set(RELATIONS) == {*stored, *aliases}
    with pytest.raises(SchemaError, match="unknown relation: 'bogus_rel'"):
        RELATIONS["bogus_rel"]


def test_schema_rows_have_no_clashing_names():
    # The tables are built from these rows by plain insertion, so a repeated
    # name would silently replace an entry; the fixed data has none.
    stored = [r.name for r in RELATION_ROWS]
    assert len(set(stored)) == len(stored)
    for alias, name in itertools.chain(RELATION_ALIASES.items(), SWAPPED_ALIASES.items()):
        assert name in stored, alias
        assert alias not in stored, alias
    assert not set(RELATION_ALIASES) & set(SWAPPED_ALIASES)
    concept_names = [n for c in CONCEPT_ROWS for n in (c.name, *c.synonyms)]
    assert len(set(concept_names)) == len(concept_names)


def test_derived_relation_roster():
    derived = {
        rel.name: rel for _, _, rel in RELATIONS.values() if rel.kind is RelationKind.DERIVED
    }
    assert sorted(derived) == [
        "attack",
        "in_the_same_organization",
        "same_affiliation",
        "same_attack_organization",
        "same_origin_attack",
    ]
    assert derived["attack"].inverse_of is None
    for name in (
        "same_attack_organization",
        "same_affiliation",
        "same_origin_attack",
        "in_the_same_organization",
    ):
        assert derived[name].inverse_of == name


def test_conformance_verdicts():
    ok = check_edge_conformance("Attacker", "craft_and_perform", "AttackMethod")
    assert ok is None
    bad_domain = check_edge_conformance("AttackTarget", "craft_and_perform", "AttackMethod")
    assert "domain mismatch" in bad_domain
    bad_range = check_edge_conformance("Attacker", "craft_and_perform", "HumanVulnerability")
    assert "range mismatch" in bad_range


def test_conformance_resolves_synonyms():
    assert check_edge_conformance("AttackMethod", "apply_to", "Victim") is None


def test_unknown_names_raise():
    with pytest.raises(SchemaError, match="^unknown concept: 'Bogus'$"):
        CONCEPTS["Bogus"]
    with pytest.raises(SchemaError, match="^unknown relation: 'bogus_rel'$"):
        RELATIONS["bogus_rel"]


def test_taxonomy_labels():
    assert "real_person" in CONCEPTS["Attacker"].taxonomy_labels
    assert "virtual_role" in CONCEPTS["Attacker"].taxonomy_labels
    assert len(CONCEPTS["HumanVulnerability"].taxonomy_labels) == 6
    assert len(CONCEPTS["EffectMechanism"].taxonomy_labels) == 6
    assert "human_based" in CONCEPTS["AttackMethod"].taxonomy_labels
