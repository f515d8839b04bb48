"""Alias-free resampling operators and diffusion sampling built on them.

The library provides windowed-jinc anti-aliasing filters, 2x up and down
resampling in alias-free and naive variants, resampling-wrapped pointwise
nonlinearities, center rotation, DDPM-style samplers driven by analytic
denoisers, and the spectral measurements used to compare all of the
above. The `aliasfree` console script exposes the same machinery.
"""

from .activation import ACTIVATIONS, apply_pointwise, gelu, relu, wrapped_activation
from .diffusion import (AnalyticGaussianDenoiser, ConstantDenoiser,
                        GaussianDataSpec, NoiseSchedule, SIGMA_MODES,
                        ZeroDenoiser, forward_noise, linear_schedule,
                        sample_classical, sample_rotated, training_loss)
from .filter_design import (HALF_PI, FilterSpec, Kernel2D, design_kernel,
                            jinc_tap, kaiser_weight, kernel_from_text,
                            kernel_to_text)
from .image_io import (RasterParseError, byte_to_float, float_to_byte,
                       raster_format, read_raster, write_raster)
from .resample import (PADDING_MODES, check_image, convolve2d, downsample2x_af,
                       downsample2x_naive, upsample2x_af, upsample2x_naive)
from .rng import Rng
from .rotation import FILL_MODES, rotate
from .special_functions import bessel_i0, bessel_j1, jinc
from .spectral import (PIPELINE_KINDS, PipelineConfig, alias_energy,
                       apply_pipeline, band_limited_corpus, config_name,
                       dft2, equivariance_error, freq_response,
                       parse_config_name, pipeline_stages, spectrum_freqs)

__version__ = "0.1.0"
