"""Domain ontology for social engineering attack knowledge.

The schema is a fixed, code-defined vocabulary written as two row tables:
``CONCEPT_ROWS`` holds eleven core concepts plus three auxiliary ones, and
``RELATION_ROWS`` every stored relation with its domain, range and
property axioms (inverse and subproperty). Its rows are the asserted
relations, their subproperties and the five relations the rules derive; a
dataset edge of a derived one must name its rule. Two alias dicts add the
other spellings accepted for stored relations. The rows are built once, at
import, into two lookup tables: ``CONCEPTS`` resolves a concept name or
synonym, ``RELATIONS`` a relation name or alias. Every module indexes
those two; an unknown name raises ``SchemaError``.
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
    relation is modeled as its own inverse. No relation admits a self-loop.
    """

    name: str
    domain: str
    range: str
    kind: RelationKind = RelationKind.ASSERTED
    inverse_of: str | None = None
    subproperty_of: str | None = None


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


_GOAL_LABELS = _OBJECT_LABELS | _SECURITY_LABELS

#: The concepts, one row each: the eleven core ones, then the three auxiliary.
CONCEPT_ROWS = (
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
        taxonomy_labels=_GOAL_LABELS,
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
        taxonomy_labels=_GOAL_LABELS,
        definition="observable outcome the target brings out",
    ),
    ConceptDef(
        "SubGoal",
        taxonomy_labels=_GOAL_LABELS | frozenset({"precondition"}),
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

_A, _S, _D = RelationKind.ASSERTED, RelationKind.SUBPROPERTY, RelationKind.DERIVED

#: The stored relations, one row each, in ``RELATIONS`` order: the 22
#: asserted ones, the 4 subproperties, then the 5 derived ones.
RELATION_ROWS = tuple(RelationDef(*row) for row in (
    # name, domain, range, kind, inverse_of, subproperty_of
    ("motivate", "AttackMotivation", "Attacker", _A, "motivated_by", None),
    ("motivated_by", "Attacker", "AttackMotivation", _A, "motivate", None),
    ("gather_and_use", "Attacker", "SocialEngineeringInformation", _A, None, None),
    ("craft_and_perform", "Attacker", "AttackMethod", _A, None, None),
    ("formulate", "Attacker", "AttackStrategy", _A, None, None),
    ("to_achieve", "AttackMethod", "AttackGoal", _A, None, None),
    ("guided_by", "AttackMethod", "AttackStrategy", _A, None, None),
    ("apply_to", "AttackMethod", "AttackTarget", _A, "suffer", None),
    ("performed_through", "AttackMethod", "AttackMedium", _A, None, None),
    ("to_exploit", "AttackMethod", "HumanVulnerability", _A, None, None),
    ("based_on", "AttackStrategy", "SocialEngineeringInformation", _A, None, None),
    ("suffer", "AttackTarget", "AttackMethod", _A, "apply_to", None),
    ("have_vul", "AttackTarget", "HumanVulnerability", _A, None, None),
    ("interacted_through", "AttackTarget", "AttackMedium", _A, None, None),
    ("bring_out", "AttackTarget", "AttackConsequence", _A, None, None),
    ("take_effected_by", "HumanVulnerability", "EffectMechanism", _A, None, None),
    ("explain", "EffectMechanism", "AttackConsequence", _A, None, None),
    ("feed_back_to", "AttackConsequence", "AttackGoal", _A, None, None),
    ("to_satisfy", "AttackGoal", "AttackMotivation", _A, None, None),
    ("subgoal_of", "SubGoal", "AttackGoal", _A, None, None),
    ("with_skill", "AttackMethod", "CommonSkill", _A, None, None),
    ("with_trick", "AttackMethod", "AuxiliaryTrick", _A, None, None),
    ("incent", "AttackMotivation", "Attacker", _S, "incented_by", "motivate"),
    ("drive", "AttackMotivation", "Attacker", _S, "driven_by", "motivate"),
    ("incented_by", "Attacker", "AttackMotivation", _S, "incent", "motivated_by"),
    ("driven_by", "Attacker", "AttackMotivation", _S, "drive", "motivated_by"),
    # Derived by the rules R1 and R4-R7; the loader takes an edge of one only
    # with ``inferred=<rule>``, as serialize_dataset writes it.
    ("attack", "Attacker", "AttackTarget", _D, None, None),
    ("same_attack_organization", "Attacker", "Attacker", _D, "same_attack_organization", None),
    ("same_affiliation", "AttackTarget", "AttackTarget", _D, "same_affiliation", None),
    ("same_origin_attack", "AttackMethod", "AttackMethod", _D, "same_origin_attack", None),
    ("in_the_same_organization", "Attacker", "Attacker", _D, "in_the_same_organization", None),
))

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
    "concept", ((n, c) for c in CONCEPT_ROWS for n in (c.name, *c.synonyms))
)

#: Every relation name the graph accepts, aliases included, resolved once:
#: (stored name, endpoints swapped, stored relation). Writes, reads,
#: queries and rule bodies all resolve names through it.
RELATIONS = LookupTable("relation", ((r.name, (r.name, False, r)) for r in RELATION_ROWS))
RELATIONS.update(
    (alias, (stored, swapped, RELATIONS[stored][2]))
    for aliases, swapped in ((RELATION_ALIASES, False), (SWAPPED_ALIASES, True))
    for alias, stored in aliases.items()
)
