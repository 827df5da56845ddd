"""Multi-scale linear-time multiple-instance learning.

Per-level selective state-space encoders over a tile pyramid,
token-aligned coarse-to-fine fusion, attention pooling, and
classification / Cox-survival heads, trained with a small reverse-mode
autodiff engine.
"""

import os

# Every matmul here is at most 128 x 128, where extra BLAS threads only
# spin. Pin one thread unless the user set a count; this takes effect only
# if numpy has not been imported yet, and child processes inherit it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
del _var


def _keep_freed_heap():
    """Each slide's tape frees tens of MB of arrays. By default glibc hands
    a freed heap top back to the OS, so the next slide page-faults the same
    memory in again (about 30k faults, 10-15% of a long-slide step). Keep
    freed heap memory and serve arrays up to 32 MB from the heap."""
    import ctypes
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError, TypeError):    # not glibc
        return
    mallopt(-3, 32 << 20)     # M_MMAP_THRESHOLD
    mallopt(-1, 1 << 30)      # M_TRIM_THRESHOLD


_keep_freed_heap()

from .bagdata import (DatasetIndex, GeneratedSlide, ManifestRecord, SynthSpec,
                      generate_dataset, generate_slide, load_manifest,
                      read_bag, write_bag, write_manifest)
from .errors import (ConfigError, DimensionError, DomainError, FormatError,
                     MarbleError, NumericError, UndefinedMetricError)
from .estimator import MarbleClassifier, MarbleCoxRegressor
from .metrics import (CoxBatch, SurvivalRecord, accuracy, auc_binary,
                      auc_macro_ovr, c_index, cox_loss, cross_entropy)
from .network import (MarbleParams, SlideOutput, encode_slide, fuse_level,
                      init_marble_params, load_checkpoint, pool_head,
                      save_checkpoint)
from .numerics import Tape, Tensor, finite_diff_check
from .pyramid import (BagLevel, LevelGrid, TokenBag, build_bag,
                      coarse_branch_drop, parent_index, shuffle_within_levels,
                      single_level_view)
from .ssmcore import (AttentionRefParams, SsmBlockParams,
                      attention_ref_forward, init_attention_params,
                      init_ssm_params, reference_scan, scaling_bench,
                      selective_scan, ssm_block_forward)
from .trainer import (EpochReport, OptimizerState, TrainConfig, TrainResult,
                      adamw_step, cosine_warmup_lr, derive_seed, evaluate,
                      train)

__version__ = "0.1.0"
