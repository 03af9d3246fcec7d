"""The exact answers of ergolab.oracle, pinned bit for bit.

The literals are float.hex values of the digit law's oracles.  The counts
and measures are integer arithmetic and an integer quotient, the same on
every platform; the Cramér rate and the Besicovitch-Eggleston value and
estimates go through math.log and math.log2, so they are pinned on the
libm that recorded them (CI prints the sha256 of their repr).
"""

import hashlib
import types

import pytest

import ergolab as E
from ergolab import deviation, dimension, observables, oracle

ALPHAS = (0.0, 0.1, 0.2, 0.25, 0.3, 0.5, 0.7)
HORIZONS = (*range(1, 13), 40, 400, 800)   # some n <= 12 puts k/n - 1/2 on each alpha <= 0.5

# sha256 of repr([[digit_deviation_count(a, n) for n in HORIZONS] for a in ALPHAS])
COUNTS_SHA256 = "25851cad816c63933c5da0eb11f89027ee9c19f195dbb65bd024dfdf93657d0a"

MEASURES = {   # alpha -> exact_deviation_measure_digit(alpha, n) for n in HORIZONS
    0.0: (
        "0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x1.0000000000000p+0",
        "0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x1.0000000000000p+0",
        "0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x1.0000000000000p+0",
        "0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x1.0000000000000p+0",
        "0x1.0000000000000p+0", "0x1.0000000000000p+0", "0x1.0000000000000p+0",
    ),
    0.1: (
        "0x1.0000000000000p+0", "0x1.0000000000000p-1", "0x1.0000000000000p+0",
        "0x1.4000000000000p-1", "0x1.8000000000000p-2", "0x1.6000000000000p-1",
        "0x1.d000000000000p-2", "0x1.7400000000000p-1", "0x1.0400000000000p-1",
        "0x1.6000000000000p-2", "0x1.1900000000000p-1", "0x1.8d00000000000p-2",
        "0x1.3b1aec22c0000p-3", "0x1.960f5fdecb8c2p-15", "0x1.81aace10441bfp-27",
    ),
    0.2: (
        "0x1.0000000000000p+0", "0x1.0000000000000p-1", "0x1.0000000000000p-2",
        "0x1.4000000000000p-1", "0x1.8000000000000p-2", "0x1.c000000000000p-3",
        "0x1.d000000000000p-2", "0x1.2800000000000p-2", "0x1.7000000000000p-3",
        "0x1.c000000000000p-4", "0x1.d000000000000p-3", "0x1.2b00000000000p-3",
        "0x1.a52c0e2800000p-8", "0x1.763af31f567b4p-52", "0x1.7e9a51bb0a22cp-100",
    ),
    0.25: (
        "0x1.0000000000000p+0", "0x1.0000000000000p-1", "0x1.0000000000000p-2",
        "0x1.4000000000000p-1", "0x1.8000000000000p-2", "0x1.c000000000000p-3",
        "0x1.0000000000000p-3", "0x1.2800000000000p-2", "0x1.7000000000000p-3",
        "0x1.c000000000000p-4", "0x1.0c00000000000p-4", "0x1.2b00000000000p-3",
        "0x1.232af2d000000p-9", "0x1.911337f25fd44p-79", "0x1.955eb1ba038c2p-155",
    ),
    0.3: (
        "0x1.0000000000000p+0", "0x1.0000000000000p-1", "0x1.0000000000000p-2",
        "0x1.0000000000000p-3", "0x1.8000000000000p-2", "0x1.c000000000000p-3",
        "0x1.0000000000000p-3", "0x1.2000000000000p-4", "0x1.4000000000000p-5",
        "0x1.c000000000000p-4", "0x1.0c00000000000p-4", "0x1.3c00000000000p-5",
        "0x1.7e07890000000p-13", "0x1.cf0c3f912cadcp-115", "0x1.17f18848fe978p-226",
    ),
    0.5: (
        "0x1.0000000000000p+0", "0x1.0000000000000p-1", "0x1.0000000000000p-2",
        "0x1.0000000000000p-3", "0x1.0000000000000p-4", "0x1.0000000000000p-5",
        "0x1.0000000000000p-6", "0x1.0000000000000p-7", "0x1.0000000000000p-8",
        "0x1.0000000000000p-9", "0x1.0000000000000p-10", "0x1.0000000000000p-11",
        "0x1.0000000000000p-39", "0x1.0000000000000p-399", "0x1.0000000000000p-799",
    ),
    0.7: (
        "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
        "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
        "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
        "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
        "0x0.0p+0", "0x0.0p+0", "0x0.0p+0",
    ),
}
LADDER_02 = (   # exact_digit_ladder(0.2, range(400, 801, 4)) measures
    "0x1.763af31f567b4p-52", "0x1.0ab93c1af718ep-51", "0x1.41d4f12832e56p-52",
    "0x1.842e3ebeafbc8p-53", "0x1.d409a3e211fdfp-54", "0x1.1a0fcee1238e5p-54",
    "0x1.91f525180b635p-54", "0x1.e528170f84874p-55", "0x1.24aebf540201bp-55",
    "0x1.61030f163ed4dp-56", "0x1.a9a19ba695318p-57", "0x1.2f33f731c71f5p-56",
    "0x1.6e108030ab521p-57", "0x1.b9ce06a3df86ep-58", "0x1.0a848522ae969p-58",
    "0x1.41722e4588e8bp-59", "0x1.c9de5ed86a11cp-59", "0x1.14782acadc28cp-59",
    "0x1.4dc3215f0683fp-60", "0x1.92cbb552fa012p-61", "0x1.e5f3c896f4ce7p-62",
    "0x1.5a065c70aa59cp-61", "0x1.a1f8aac06f573p-62", "0x1.f8b6898618a2ep-63",
    "0x1.30a1a35d0c7bep-63", "0x1.6f9ef3bc299c6p-64", "0x1.05b78288da1cap-63",
    "0x1.3c33f6c0998c8p-64", "0x1.7de9885b827a9p-65", "0x1.cd226ee7031cbp-66",
    "0x1.164fbe0ad068ap-66", "0x1.8c33b17fa2c7bp-66", "0x1.dec87d0d35271p-67",
    "0x1.2133462325d5fp-67", "0x1.5d44a9ad0aa9bp-68", "0x1.a5b07f1213045p-69",
    "0x1.2c1baa804e403p-68", "0x1.6aba7affac04cp-69", "0x1.b64918221ba5ap-70",
    "0x1.08b6cac67cb7ep-70", "0x1.3fabdf6680fc4p-71", "0x1.c6f06048fb957p-71",
    "0x1.12fb324d770dap-71", "0x1.4c5249564da98p-72", "0x1.91816c5523537p-73",
    "0x1.e4f58c873b70cp-74", "0x1.5909053370742p-73", "0x1.a12bcf8c3cd54p-74",
    "0x1.f83f6f282c208p-75", "0x1.30aab1f720f2ep-75", "0x1.700fa11217fbdp-76",
    "0x1.05d4ba211cd1ap-75", "0x1.3c9eac74e54f2p-76", "0x1.7ec508ec7bef9p-77",
    "0x1.ce9dee5193a3ap-78", "0x1.177cc839d216cp-78", "0x1.8d98160acd021p-78",
    "0x1.e0dc4b536c302p-79", "0x1.22b4b6e27a6b9p-79", "0x1.5f6754f5ca5fcp-80",
    "0x1.a8aab65fc2e87p-81", "0x1.2e06e9e3986cep-80", "0x1.6d540bc922216p-81",
    "0x1.b9c88f5f14386p-82", "0x1.0b0d5ac7eec98p-82", "0x1.42c76d655dbb4p-83",
    "0x1.cb13b28ab9fdap-83", "0x1.15ae9f4e7a6bbp-83", "0x1.4fd6ea28af4ccp-84",
    "0x1.9613db4c93cb8p-85", "0x1.eae30765a41fdp-86", "0x1.5d0caf6c1f338p-85",
    "0x1.a64f548280af5p-86", "0x1.fed26e68c055dp-87", "0x1.34de63a5a262cp-87",
    "0x1.756d5ccdc6105p-88", "0x1.0980cd8df6c6fp-87", "0x1.4143b2847fd0cp-88",
    "0x1.84a4f9e06db7bp-89", "0x1.d60be13a8fc22p-90", "0x1.1c2f06c0dbe9ep-90",
    "0x1.941119f34a1d4p-90", "0x1.e8fb3f0b3d4f7p-91", "0x1.27cd440b5aaa4p-91",
    "0x1.65ccc4f5bf686p-92", "0x1.b0b1f32c3ac69p-93", "0x1.33965a8fa3c75p-92",
    "0x1.7443a8359cdb3p-93", "0x1.c2706081834a6p-94", "0x1.10744f218be42p-94",
    "0x1.4985f768532ccp-95", "0x1.d47437f333e3bp-95", "0x1.1b8163ad4d604p-95",
    "0x1.571354bb8339dp-96", "0x1.9f126d4a62a22p-97", "0x1.f611cec430ff4p-98",
    "0x1.64d894def0a20p-97", "0x1.aff60f6f87093p-98", "0x1.05632beeb6424p-98",
    "0x1.3c45dd46e942ep-99", "0x1.7e9a51bb0a22cp-100",
)
CRAMER = {
    0: "0x0.0p+0",
    0.05: "0x1.483a73cfbcb40p-8",
    0.2: "0x1.5107da0332f30p-4",
    0.25: "0x1.0be72e4252a82p-3",
    0.45: "0x1.fa80cb6790f72p-2",
    0.5: "0x1.62e42fefa39efp-1",
    0.8: "0x1.62e42fefa39efp-1",
}

BESICOVITCH_EGGLESTON = {   # alpha -> (value, estimates at depths 200, 400, 800)
    0.01: ("0x1.ffda2d9787d91p-1",
           ("0x1.fece57f279617p-1", "0x1.ff365b6b413a0p-1", "0x1.ff71c21d5dbbfp-1")),
    0.1: ("0x1.f1206fb26ddb0p-1",
          ("0x1.eb410fa6eaca1p-1", "0x1.eda6e31f5fe7bp-1", "0x1.ef192f2d36cadp-1")),
    0.25: ("0x1.9f5fd8a9063e3p-1",
           ("0x1.994da8fd7b303p-1", "0x1.9bb587158a3a8p-1", "0x1.9d397106d1e14p-1")),
    0.49: ("0x1.4aedbe46a0a7bp-4",
           ("0x1.393dbe30e9302p-4", "0x1.3d44f14107cdcp-4", "0x1.419da91e30985p-4")),
}

PUBLIC_NAMES = {
    "BallLemmaReport", "BeDimension", "BoxDimension", "CoverEntry", "CoverLadder", "DIGIT",
    "DIGIT_MEAN", "DeviationLadder", "DomainError", "ErgolabError", "ExperimentConfig",
    "FlowObservable", "FlowState", "GridBudgetError", "LadderEntry", "Observable",
    "ParameterError", "RateBound", "RateFunctionFit", "RateNotEstablishedError", "Report", "Roof",
    "SpaceAverage", "StageError", "SuspensionFlow", "System", "VERDICT_HOLDS",
    "VERDICT_INCONCLUSIVE", "VERDICT_VIOLATED", "ValidationError", "VolumeSeries",
    "besicovitch_eggleston_dimension", "bound_verdict", "box_counting_dimension",
    "bridge_checks", "build_cover_ladder", "build_deviation_ladders", "config_from_ini",
    "config_to_ini", "constant_roof", "cosine_roof", "cover_to_csv", "cramer_bernoulli",
    "dimension_upper_bound", "distance", "domain_diameter", "dprime_volume_series",
    "estimate_time1_lipschitz", "exact_deviation_measure_digit", "exact_digit_ladder",
    "fiber_constant", "fit_rate_function", "flow_nontypical_inclusion_check", "flow_step",
    "flow_time_average", "get_observable", "get_system", "integer_part_reduction_check",
    "iterate", "ladder_to_csv", "load_config", "modulus_delta", "modulus_delta_for",
    "rate_bound", "report_json", "run_pipeline", "sample_flow_batch", "sample_flow_states",
    "sample_orbit_ensemble", "srb_space_average", "time_average", "try_box_dimension",
    "validate_config", "verify_ball_lemma", "wrap_unit", "write_artifacts",
}

DIGIT_LAW = ("DIGIT", "DIGIT_MEAN", "DIGIT_SYSTEM", "LN2", "digit_deviation_count",
             "exact_deviation_measure_digit", "exact_digit_ladder", "cramer_bernoulli",
             "BeDimension", "besicovitch_eggleston_dimension")


def test_digit_counts_and_measures_are_pinned():
    counts = [[oracle.digit_deviation_count(a, n) for n in HORIZONS] for a in ALPHAS]
    assert hashlib.sha256(repr(counts).encode()).hexdigest() == COUNTS_SHA256
    for a, row in zip(ALPHAS, counts):
        got = [oracle.exact_deviation_measure_digit(a, n) for n in HORIZONS]
        assert [m.hex() for m in got] == list(MEASURES[a]), a
        assert got == [c / 2**n for c, n in zip(row, HORIZONS)]


@pytest.mark.parametrize("n", [0, -3, 2.5, True])
def test_digit_count_refuses_a_bad_horizon_by_name(n):
    # n 0 counted the empty word and a negative n counted none, both silently
    with pytest.raises(ValueError, match=r"^n must be"):
        oracle.digit_deviation_count(0.1, n)


def test_exact_digit_ladder_is_pinned():
    lad = oracle.exact_digit_ladder(0.2, range(400, 801, 4))
    assert [e.n for e in lad.entries] == list(range(400, 801, 4))
    assert tuple(e.measure.hex() for e in lad.entries) == LADDER_02


def test_cramer_bernoulli_is_pinned():
    assert {a: oracle.cramer_bernoulli(a).hex() for a in CRAMER} == CRAMER


def test_besicovitch_eggleston_dimension_is_pinned():
    for a, (value, estimates) in BESICOVITCH_EGGLESTON.items():
        be = oracle.besicovitch_eggleston_dimension(a)
        assert be.alpha == a and be.confirmed
        assert be.value.hex() == value
        assert be.cylinder_estimates == tuple(
            (n, float.fromhex(v)) for n, v in zip((200, 400, 800), estimates))


def test_public_names_are_pinned():
    names = {n for n, v in vars(E).items()
             if not n.startswith("_") and not isinstance(v, types.ModuleType)}
    assert names == PUBLIC_NAMES


def test_the_digit_law_lives_in_the_oracle_alone():
    for name in DIGIT_LAW:
        assert hasattr(oracle, name)
        for module in (deviation, dimension, observables):
            assert not hasattr(module, name), (module.__name__, name)
