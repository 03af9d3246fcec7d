"""ergolab: deviation sets, large-deviation rate fits, and dimension bounds
for a catalog of chaotic maps and suspension flows."""

from .errors import (DomainError, ErgolabError, GridBudgetError, ParameterError,
                     RateNotEstablishedError, StageError, ValidationError)
from .systems import (System, distance, domain_diameter, get_system, iterate,
                      sample_orbit_ensemble, wrap_unit)
from .observables import (Observable, SpaceAverage, get_observable, modulus_delta,
                          modulus_delta_for, srb_space_average, time_average)
from .deviation import (DeviationLadder, LadderEntry, RateFunctionFit,
                        build_deviation_ladders, fit_rate_function, ladder_to_csv)
from .dimension import (VERDICT_HOLDS, VERDICT_INCONCLUSIVE, VERDICT_VIOLATED,
                        BallLemmaReport, BoxDimension, CoverEntry, CoverLadder, RateBound,
                        VolumeSeries, bound_verdict, box_counting_dimension,
                        build_cover_ladder, cover_to_csv, dimension_upper_bound,
                        dprime_volume_series, rate_bound, try_box_dimension,
                        verify_ball_lemma)
from .oracle import (DIGIT, DIGIT_MEAN, BeDimension, besicovitch_eggleston_dimension,
                     cramer_bernoulli, exact_deviation_measure_digit, exact_digit_ladder)
from .flows import (FlowObservable, FlowState, Roof, SuspensionFlow, bridge_checks,
                    constant_roof, cosine_roof, estimate_time1_lipschitz,
                    fiber_constant, flow_nontypical_inclusion_check, flow_step,
                    flow_time_average, integer_part_reduction_check,
                    sample_flow_batch, sample_flow_states)
from .runner import (ExperimentConfig, Report, config_from_ini, config_to_ini,
                     load_config, report_json, run_pipeline, validate_config,
                     write_artifacts)

__version__ = "0.1.0"
