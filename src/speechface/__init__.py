"""Speech-driven 3D facial animation: spectrogram frontend, CNN+RNN model,
blendshape face composition, training and streaming inference."""

from .audio import (
    AudioClip,
    NormStats,
    Spectrogram,
    clip_spectrograms,
    compute_spectrogram,
    extract_frame_window,
    fit_normalization,
    frame_count,
    load_wav,
    normalize,
    write_wav,
)
from .autograd import Parameter, Tensor, no_grad
from .data import Dataset, load_dataset, read_param_csv, save_dataset, write_param_csv
from .errors import (
    ConfigError,
    DataError,
    NumericError,
    ParseError,
    RangeError,
    ShapeError,
    SpeechFaceError,
    StateError,
)
from .face import (
    BlendshapeRig,
    FaceFrame,
    compose_shape,
    landmark_rmse,
    load_rig,
    make_toy_rig,
    save_rig,
    weights_mse,
    write_obj,
)
from .model import (
    Model,
    build_model,
    forward,
    forward_sequence,
    load_checkpoint,
    save_checkpoint,
)
from .stream import StreamingSession, bench
from .trainer import AdamState, TrainConfig, adam_step, make_batches, train

__version__ = "0.1.0"

__all__ = [
    "AudioClip", "NormStats", "Spectrogram", "clip_spectrograms",
    "compute_spectrogram", "extract_frame_window", "fit_normalization",
    "frame_count", "load_wav", "normalize", "write_wav",
    "Parameter", "Tensor", "no_grad",
    "Dataset", "load_dataset", "save_dataset", "read_param_csv", "write_param_csv",
    "SpeechFaceError", "ShapeError", "ParseError", "RangeError", "ConfigError",
    "StateError", "DataError", "NumericError",
    "BlendshapeRig", "FaceFrame", "compose_shape", "landmark_rmse", "load_rig",
    "make_toy_rig", "save_rig", "weights_mse", "write_obj",
    "Model", "build_model", "forward", "forward_sequence",
    "load_checkpoint", "save_checkpoint",
    "StreamingSession", "bench",
    "AdamState", "TrainConfig", "adam_step", "make_batches", "train",
]
