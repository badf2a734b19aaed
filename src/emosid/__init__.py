"""Closed-set, text-independent speaker identification in emotional speech.

A cascaded GMM-DNN classifier: per-(speaker, emotion) diagonal Gaussian
mixtures score MFCC segments, and a small ReLU network maps the resulting
log-likelihood vectors to a speaker posterior.
"""

from .audio import AudioClip, load_wav, resample, pre_emphasize, \
    frame_and_window, mix_interference
from .features import FeatureMatrix, MelFilterbank, power_spectrum, build_filterbank, mfcc
from .gmm import TagStore, em_fit, frame_scores, gmm_identify
from .dnn import DnnModel, forward, train
from .cascade import SegmentPlan, segment, likelihood_vectors, pooled_stats, classify
from .evaluation import TrialRecord, sid_performance, students_t, \
    confusion_matrix, compare_two
from .corpus import Manifest, SynthSpec, load_manifest, generate_synthetic, \
    protocol_counts
from .pipeline import PipelineConfig, train_tags, train_models, evaluate_models

__version__ = "0.1.0"
