"""Sequential Bayesian filtering, forecasting and model comparison for daily
asset prices coupled with OHLC-derived realized volatility."""

from .dlm_core import (HyperParams, ModelClass, NormalGammaPosterior, OneStepStats,
                       PriorMoments, RvUpdatedPrior, build_regressor, evolve,
                       limiting_dof, price_update, rv_update,
                       sv_volatility_update_path)
from .distributions import (GammaParams, ScaledFParams, StudentTParams,
                            gamma_cdf, gamma_quantile, sample_gamma, sample_scaled_f,
                            scaled_f_logpdf, student_t_logpdf, student_t_quantile)
from .errors import ConfigError, DataError, DomainError, NumericalError, RvdlmError
from .forecast import RegressorInputs, predictive_y_given_z, predictive_z, sample_joint
from .ingestion import (CsvSchema, SeriesFrame, apply_split, build_series,
                        parse_csv, read_ohlc, series_from_ohlc, write_csv)
from .kernel import FilterTrajectory, dof_sequences, run_filter
from .pipeline import ModelSpec, RunConfig, SeriesSpec, load_config, run_filter_pipeline
from .rv_measures import DEFAULT_RV_FLOOR, OhlcBar, rogers_satchell, validate_bar
from .scoring import ScoreLedger, log_bayes_factor_path, log_score_z_path
from .smoothing import SmoothedEstimates, backward_sample, smooth
from .synthetic import (SyntheticParams, SyntheticTruth, generate_synthetic,
                        slowly_varying_theta)

__version__ = "0.1.0"
