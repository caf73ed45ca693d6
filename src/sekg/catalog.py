"""Controlled vocabularies referenced by dataset nodes.

Seven term lists: human vulnerabilities (43, in six categories), effect
mechanisms (38, in six aspects), attack motivations (19), attack mediums
(22), attack method kinds (20), attack target kinds (15) and social
engineering information kinds (36). Dataset loading resolves node ids and
``kind`` properties against these lists and enriches known vocabulary
nodes with their category labels and synonyms.
"""

from typing import NamedTuple


class CatalogEntry(NamedTuple):
    ident: str
    category: str | None = None
    synonyms: tuple[str, ...] = ()
    labels: tuple[str, ...] = ()


def _entries(category: str | None, *items) -> list[CatalogEntry]:
    out = []
    for item in items:
        if isinstance(item, str):
            out.append(CatalogEntry(item, category))
        else:
            ident, *synonyms = item
            out.append(CatalogEntry(ident, category, tuple(synonyms)))
    return out


_VULNERABILITIES = (
    _entries(
        "cognition_and_knowledge",
        "ignorance",
        "inexperience",
        ("thinking_set", "stereotyping"),
        ("prejudice", "bias"),
        "conformity",
        "intuitive_judgement",
        "low_level_of_need_for_cognition",
        ("heuristics", "mental_shortcuts"),
    )
    + _entries(
        "behavior_and_habit",
        ("laziness", "sloth"),
        ("carelessness", "thoughtlessness"),
        "fixed_action_patterns",
        ("behavioral_habits", "habitual_behaviors"),
    )
    + _entries(
        "emotions_and_feelings",
        ("fear", "dread"),
        "curiosity",
        ("anger", "wrath"),
        "excitement",
        "tension",
        "happiness",
        "sadness",
        "disgust",
        "surprise",
        "guilt",
        ("impulsion", "fluke_mind"),
    )
    + _entries(
        "human_nature",
        "self_love",
        "sympathy",
        ("helpfulness", "desire_to_be_helpful"),
        "greed",
        "gluttony",
        "lust",
    )
    + _entries(
        "personality_traits",
        "conscientiousness",
        "extraversion",
        "agreeableness",
        ("openness", "openness_to_experience"),
        "neuroticism",
    )
    + _entries(
        "individual_characters",
        ("credulity", "gullibility"),
        "friendliness",
        ("kindness", "charity"),
        "courtesy",
        "humility",
        "diffidence",
        ("apathy", "indifference"),
        "hubris",
        "envy",
    )
)

_MECHANISMS = (
    _entries(
        "persuasion",
        "similarity_liking_and_helping",
        "distraction_in_persuasion",
        "source_credibility_and_authority",
        "central_route_to_persuasion",
        "peripheral_route_to_persuasion",
        "elaboration_likelihood_model",
        "need_for_cognition_in_persuasion",
    )
    + _entries(
        "influence",
        "group_influence_and_conformity",
        ("normative_influence", "social_validation"),
        ("informational_influence", "social_proof"),
        "social_exchange_theory",
        "reciprocity_norm",
        "social_responsibility_norm",
        "moral_duty",
        "self_disclosure_and_rapport_building",
    )
    + _entries(
        "cognition_attitude_and_behavior",
        "impression_management_theory",
        "cognitive_dissonance",
        "commitment_and_consistency",
        "foot_in_the_door",
        "diffusion_of_responsibility",
        "bystander_effect",
        "deindividuation_in_group",
        "time_pressure_and_thought_overloading",
        "scarcity_and_fear_arousing",
    )
    + _entries(
        "trust_and_deception",
        "trust_and_risk_taking",
        "factor_affecting_trust",
        "factor_affecting_deception",
        "integrative_model_of_organizational_trust",
        ("interpersonal_deception_theory", "idt"),
    )
    + _entries(
        "language_thought_and_decision",
        "language_and_thinking",
        "framing_effect_and_cognitive_bias",
        "language_invoked_confusion",
        "indirect_thought_and_negative_expression",
    )
    + _entries(
        "emotion_and_decision_making",
        "neurophysiological_mechanism_of_decision",
        "emotions_influence_decision_making",
        "facial_expression_and_deception_leakage",
        "facial_action_coding",
        "micro_expression_identification",
    )
)

_INTRINSIC = {
    "personal_interest",
    "intellectual_challenge",
    "fun_or_pleasure",
    "prank",
    "revenge",
    "religious_belief",
    "fanaticism",
}

_MOTIVATION_IDS = (
    "financial_gain",
    "competitive_advantage",
    "revenge",
    "external_pressure",
    "personal_interest",
    "intellectual_challenge",
    "increasing_followers",
    "image_spoiling",
    "prank",
    "fun_or_pleasure",
    "politics",
    "war",
    "religious_belief",
    "fanaticism",
    "social_disorder",
    "cultural_disruption",
    "terrorism",
    "espionage",
    "security_test",
)

_MOTIVATIONS = [
    CatalogEntry(m, labels=("intrinsic",) if m in _INTRINSIC else ("extrinsic",))
    for m in _MOTIVATION_IDS
]

# ident, synonyms..., then interaction-form labels
_MEDIUM_ROWS: tuple[tuple[tuple[str, ...], tuple[str, ...]], ...] = (
    (("the_real_world",), ("direct", "realtime")),
    (("attach_files",), ("indirect", "non_realtime")),
    (("letter",), ("indirect", "non_realtime")),
    (("manual",), ("indirect", "non_realtime")),
    (("card",), ("indirect", "non_realtime")),
    (("picture",), ("indirect", "non_realtime")),
    (("video",), ("indirect", "non_realtime")),
    (("rfid_tag",), ("indirect", "passive")),
    (("qr_code",), ("indirect", "passive")),
    (("telephone", "phone"), ("indirect", "realtime")),
    (("email",), ("indirect", "non_realtime")),
    (("website",), ("indirect", "non_realtime")),
    (("software",), ("indirect", "non_realtime")),
    (("bluetooth",), ("indirect", "realtime")),
    (("popup_window",), ("indirect", "realtime")),
    (("instant_messenger",), ("indirect", "realtime")),
    (("cloud_service",), ("indirect", "non_realtime")),
    (("voip", "voice_over_ip"), ("indirect", "realtime")),
    (("portable_storage_drives",), ("indirect", "passive")),
    (("sms", "short_message_service"), ("indirect", "non_realtime")),
    (("mobile_communication_devices",), ("indirect", "realtime")),
    (("sns", "snss", "social_networking_sites"), ("indirect", "non_realtime")),
)

_MEDIUMS = [
    CatalogEntry(names[0], synonyms=tuple(names[1:]), labels=labels)
    for names, labels in _MEDIUM_ROWS
]

_HUMAN_BASED = {
    "pretexting",
    "impersonation",
    "shoulder_surfing",
    "piggybacking",
    "trailing",
    "vishing",
    "reverse_social_engineering",
    "influence",
    "deception",
    "persuasion",
    "manipulation",
    "induction",
}

_METHOD_IDS = (
    "phishing",
    "spear_phishing",
    "whaling",
    "vishing",
    "smishing",
    "pretexting",
    "impersonation",
    "shoulder_surfing",
    "piggybacking",
    "trailing",
    "baiting",
    "reverse_social_engineering",
    "water_holing",
    "trojan_attack",
    "honey_trap",
    "influence",
    "deception",
    "persuasion",
    "manipulation",
    "induction",
)

_METHODS = [
    CatalogEntry(
        m, labels=("human_based",) if m in _HUMAN_BASED else ("computer_based",)
    )
    for m in _METHOD_IDS
]

_TARGET_KINDS = _entries(
    None,
    "new_employee",
    "secretary",
    "help_desk",
    "technical_support",
    "system_administrator",
    "telephone_operator",
    "security_guard",
    "receptionist",
    "contractor",
    "client",
    "partner",
    "manager",
    "executive_assistant",
    "manufacturer",
    "vendor",
)

_INFORMATION_KINDS = _entries(
    None,
    "person_name",
    "identity",
    "photograph",
    "habits_and_characteristics",
    "hobbies_or_interests",
    "job_title",
    "job_responsibility",
    "schedule",
    "routines",
    "new_employee",
    "organizational_structure",
    "organizational_policy",
    "organizational_logo",
    "company_partner",
    "lingo",
    "manuals",
    "interpersonal_relations",
    "family_information",
    "profile_in_sns",
    "posts_in_social_media",
    "connections_in_sns",
    "sns_group_information",
    "phone_numbers",
    "email_information",
    "username",
    "password",
    "network_information",
    "computer_name",
    "ip_addresses",
    "server_name",
    "application_information",
    "version_information",
    "hardware_information",
    "it_infrastructure_information",
    "building_structure",
    "location_information",
)


#: Vocabulary name -> its entries.
VOCABULARIES: dict[str, tuple[CatalogEntry, ...]] = {
    "vulnerabilities": tuple(_VULNERABILITIES),
    "mechanisms": tuple(_MECHANISMS),
    "motivations": tuple(_MOTIVATIONS),
    "mediums": tuple(_MEDIUMS),
    "method_kinds": tuple(_METHODS),
    "target_kinds": tuple(_TARGET_KINDS),
    "information_kinds": tuple(_INFORMATION_KINDS),
}

#: Concept -> the vocabulary that its node ids are drawn from.
ID_VOCABULARY = {
    "HumanVulnerability": "vulnerabilities",
    "EffectMechanism": "mechanisms",
    "AttackMotivation": "motivations",
    "AttackMedium": "mediums",
}

#: Concept -> the vocabulary that its ``kind`` property is drawn from.
KIND_VOCABULARY = {
    "AttackMethod": "method_kinds",
    "AttackTarget": "target_kinds",
    "SocialEngineeringInformation": "information_kinds",
    "AttackMedium": "mediums",
}

_INDEX = {
    name: {term: e for e in entries for term in (e.ident, *e.synonyms)}
    for name, entries in VOCABULARIES.items()
}


def lookup(vocabulary: str, term: str) -> CatalogEntry | None:
    """Find a term (by id or synonym) in the named vocabulary."""
    return _INDEX[vocabulary].get(term)
