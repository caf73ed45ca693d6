"""Domain ontology for social engineering attack knowledge.

The schema is a fixed, code-defined vocabulary: eleven core concepts plus
three auxiliary ones, the asserted relations between them, property-style
axioms (inverses and subproperties), the relations that only inference may
produce, and the alias spellings accepted for stored relations. The rows
are built once, at import, into two lookup tables: ``CONCEPTS`` resolves a
concept name or synonym, ``RELATIONS`` a relation name or alias. Every
module indexes those two; an unknown name raises ``SchemaError``.
"""

from enum import Enum
from typing import NamedTuple

from .errors import SchemaError


class RelationKind(Enum):
    ASSERTED = "asserted"
    SUBPROPERTY = "subproperty"
    DERIVED = "derived"


class ConceptDef(NamedTuple):
    """One ontology concept: canonical name, synonyms, allowed taxonomy labels."""

    name: str
    synonyms: tuple[str, ...] = ()
    taxonomy_labels: frozenset[str] = frozenset()
    auxiliary: bool = False
    definition: str = ""


class RelationDef(NamedTuple):
    """One relation: exactly one domain and one range concept.

    ``inverse_of`` and ``subproperty_of`` encode the axioms. A symmetric
    relation is modeled as its own inverse.
    """

    name: str
    domain: str
    range: str
    kind: RelationKind = RelationKind.ASSERTED
    inverse_of: str | None = None
    subproperty_of: str | None = None
    irreflexive: bool = True


_OBJECT_LABELS = frozenset(
    {"carrier", "resources", "subjects", "operations"}
)
_SECURITY_LABELS = frozenset(
    {"confidentiality", "integrity", "availability", "controllability", "auditability"}
)
_ACTOR_LABELS = frozenset(
    {"individual", "group", "organization", "real_person", "virtual_role", "internal", "external"}
)

VULNERABILITY_CATEGORIES = (
    "cognition_and_knowledge",
    "behavior_and_habit",
    "emotions_and_feelings",
    "human_nature",
    "personality_traits",
    "individual_characters",
)

MECHANISM_ASPECTS = (
    "persuasion",
    "influence",
    "cognition_attitude_and_behavior",
    "trust_and_deception",
    "language_thought_and_decision",
    "emotion_and_decision_making",
)


def _concepts() -> tuple[ConceptDef, ...]:
    goal_labels = _OBJECT_LABELS | _SECURITY_LABELS
    return (
        ConceptDef(
            "Attacker",
            synonyms=("SocialEngineer",),
            taxonomy_labels=_ACTOR_LABELS,
            definition="party that plans and carries out the attack",
        ),
        ConceptDef(
            "AttackMotivation",
            taxonomy_labels=frozenset({"intrinsic", "extrinsic"}),
            definition="what moves the attacker to act",
        ),
        ConceptDef(
            "AttackGoal",
            synonyms=("AttackPurpose",),
            taxonomy_labels=goal_labels,
            definition="concrete objective the attack works toward",
        ),
        ConceptDef(
            "SocialEngineeringInformation",
            taxonomy_labels=frozenset(
                {"personal", "organizational", "cyber", "physical", "social_relations"}
            ),
            definition="information gathered to prepare or support the attack",
        ),
        ConceptDef(
            "AttackStrategy",
            taxonomy_labels=frozenset(
                {"forward", "reverse", "persistent", "short_term", "progressive"}
            ),
            definition="plan that sequences methods toward the goal",
        ),
        ConceptDef(
            "AttackMethod",
            taxonomy_labels=frozenset({"human_based", "computer_based"}),
            definition="technique performed against the target",
        ),
        ConceptDef(
            "AttackTarget",
            synonyms=("Victim",),
            taxonomy_labels=_ACTOR_LABELS,
            definition="person or group the method is applied to",
        ),
        ConceptDef(
            "AttackMedium",
            synonyms=("SocialInteraction",),
            taxonomy_labels=frozenset(
                {"direct", "indirect", "realtime", "non_realtime", "active", "passive"}
            ),
            definition="channel the interaction travels through",
        ),
        ConceptDef(
            "HumanVulnerability",
            taxonomy_labels=frozenset(VULNERABILITY_CATEGORIES),
            definition="human trait or state the method exploits",
        ),
        ConceptDef(
            "EffectMechanism",
            taxonomy_labels=frozenset(MECHANISM_ASPECTS),
            definition="psychological principle that makes the exploitation work",
        ),
        ConceptDef(
            "AttackConsequence",
            taxonomy_labels=goal_labels,
            definition="observable outcome the target brings out",
        ),
        ConceptDef(
            "SubGoal",
            taxonomy_labels=goal_labels | frozenset({"precondition"}),
            auxiliary=True,
            definition="intermediate objective under an attack goal",
        ),
        ConceptDef(
            "CommonSkill",
            auxiliary=True,
            definition="general skill usable across methods",
        ),
        ConceptDef(
            "AuxiliaryTrick",
            auxiliary=True,
            definition="small supporting trick embedded in a method",
        ),
    )


# name, domain, range, inverse_of  (rows of the asserted-relation table)
_ASSERTED_ROWS: tuple[tuple[str, str, str, str | None], ...] = (
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
)

# Relation names accepted on input and read as a stored relation. Each
# alias is declared here and nowhere else. ``bring_about`` and ``conduct``
# are other spellings of bring_out and craft_and_perform; ``exploited_by``
# is the verbose inverse of to_exploit, so its endpoints swap.
RELATION_ALIASES: dict[str, str] = {
    "bring_about": "bring_out",
    "conduct": "craft_and_perform",
}
SWAPPED_ALIASES: dict[str, str] = {
    "exploited_by": "to_exploit",
}


def _relations() -> tuple[RelationDef, ...]:
    rels = [
        RelationDef(name, dom, rng, RelationKind.ASSERTED, inverse_of=inv)
        for name, dom, rng, inv in _ASSERTED_ROWS
    ]
    rels += [
        RelationDef(
            "incent", "AttackMotivation", "Attacker", RelationKind.SUBPROPERTY,
            inverse_of="incented_by", subproperty_of="motivate",
        ),
        RelationDef(
            "drive", "AttackMotivation", "Attacker", RelationKind.SUBPROPERTY,
            inverse_of="driven_by", subproperty_of="motivate",
        ),
        RelationDef(
            "incented_by", "Attacker", "AttackMotivation", RelationKind.SUBPROPERTY,
            inverse_of="incent", subproperty_of="motivated_by",
        ),
        RelationDef(
            "driven_by", "Attacker", "AttackMotivation", RelationKind.SUBPROPERTY,
            inverse_of="drive", subproperty_of="motivated_by",
        ),
    ]
    return tuple(rels)


def _derived_relations() -> tuple[RelationDef, ...]:
    return (
        RelationDef("attack", "Attacker", "AttackTarget", RelationKind.DERIVED),
        RelationDef(
            "same_attack_organization", "Attacker", "Attacker", RelationKind.DERIVED,
            inverse_of="same_attack_organization",
        ),
        RelationDef(
            "same_affiliation", "AttackTarget", "AttackTarget", RelationKind.DERIVED,
            inverse_of="same_affiliation",
        ),
        RelationDef(
            "same_origin_attack", "AttackMethod", "AttackMethod", RelationKind.DERIVED,
            inverse_of="same_origin_attack",
        ),
        RelationDef(
            "in_the_same_organization", "Attacker", "Attacker", RelationKind.DERIVED,
            inverse_of="in_the_same_organization",
        ),
    )


class LookupTable(dict):
    """Name -> entry of one kind, built once at import.

    Indexing it with a name it does not hold raises ``SchemaError``.
    """

    def __init__(self, kind: str, entries):
        super().__init__(entries)
        self._kind = kind

    def __missing__(self, name: str):
        raise SchemaError(f"unknown {self._kind}: {name!r}")


#: Concept name or synonym -> its concept.
CONCEPTS = LookupTable(
    "concept", ((n, c) for c in _concepts() for n in (c.name, *c.synonyms))
)

#: Every relation name the graph accepts, aliases included, resolved once:
#: (stored name, endpoints swapped, stored relation). Writes, reads,
#: queries and rule bodies all resolve names through it.
RELATIONS = LookupTable(
    "relation",
    ((r.name, (r.name, False, r)) for r in (*_relations(), *_derived_relations())),
)
RELATIONS.update(
    (alias, (stored, swapped, RELATIONS[stored][2]))
    for aliases, swapped in ((RELATION_ALIASES, False), (SWAPPED_ALIASES, True))
    for alias, stored in aliases.items()
)
