"""tmfusion: sequence training that fuses an alignment-free likelihood
loss with an occupancy-weighted center loss, next to the classic
framewise pairing, with brute-force oracles for every formula."""

# numpy 2 imports numpy.random on first use; a signal handler that calls
# np.random (a profiler, a timer) and lands inside that import dies with
# a RecursionError, so the library imports it up front
import numpy.random as _numpy_random  # noqa: F401

from .ctc import (AlignmentTables, BLANK, DegenerateFrame, InfeasibleLabeling,
                  ctc_grad_logits, forward_backward, min_frames, occupancy)
from .losses import (CenterBank, UnknownClass, center_stats, cross_entropy, ecl,
                     ecl_grad_features, frame_runs)
from .model import (ModelState, NetworkSpec, NonFiniteGradient, ScheduleState,
                    TrainSettings, adam_step, backward_batch, forward_stacks,
                    schedule_tick, train, validation_score)
from .synth import (CONDITIONS, GeneratorConfig, MalformedDataset, SequenceSample,
                    UnseenNoise, class_means, generate, load_jsonl, save_jsonl, split)
from .metrics import (EvalReport, best_paths, collapse, edit_distances, embedding_report,
                      token_error_rate)
from .config import (ConfigError, RunConfig, load_checkpoint, load_config,
                     save_checkpoint, save_config)
from .experiment import (ExperimentSpec, evaluate_model, headline,
                         run_experiment, run_single)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
