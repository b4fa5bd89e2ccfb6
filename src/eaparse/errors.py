"""Exception types shared across the toolkit.

Every error raised for bad user input derives from ToolkitError so the CLI
can map it to exit code 2 (malformed input) while genuine bugs stay exit 1.

That includes every scalar argument of the library. A count is an integer
(numpy integers too) and a weight, ratio or other real is a finite number
within float range; a bool is neither. One predicate holds that rule,
``tensorio._is_number``, and the executable's config checks call it as well.
A scalar that breaks the rule, or its range, raises a ToolkitError whose
message names it.
"""


class ToolkitError(Exception):
    """Base class for all input/contract violations raised by this package."""


class InvalidRaster(ToolkitError):
    """An in-memory raster violates its type invariants (shape, dtype, range)."""


class ShapeMismatch(ToolkitError):
    """Two rasters/tensors that must share a shape do not."""


class LabelOutOfRange(ToolkitError):
    """A label id is >= the channel count of the logits it indexes, or logits
    hold more than 256 classes, whose ids a uint8 label map cannot hold."""


class EmptyMask(ToolkitError):
    """A mask was supplied but selects zero pixels."""


class MissingGradient(ToolkitError):
    """A loss combination needs gradients that were not computed."""


class DegenerateMask(ToolkitError):
    """A seed mask is empty or covers the whole frame."""


class TooFewPixels(ToolkitError):
    """Fewer samples than mixture components."""


class ClassAbsent(ToolkitError):
    """The requested class id does not occur in the label map."""


class ChannelMismatch(ToolkitError):
    """Ensemble inputs disagree on channel count."""


class EmptyInput(ToolkitError):
    """An input collection that must be non-empty is empty."""


class NoClassEverPresent(ToolkitError):
    """Every evaluated class was absent from every frame of pred and gt."""


class SizeMismatch(ToolkitError):
    """A patch does not match the box it is pasted into."""


class OutOfBounds(ToolkitError):
    """A box extends outside the raster it indexes."""


class InvalidBox(ToolkitError):
    """Box coordinates violate 0 <= x0 < x1, 0 <= y0 < y1 or frame bounds."""


class TooSmall(ToolkitError):
    """A raster is too small for the requested cut."""


class InvalidChoice(ToolkitError):
    """An argument is not one of the values the operation accepts."""


# --- file format errors (tensorio) ---


class TensorIoError(ToolkitError):
    """Base class for on-disk format violations."""


class IoFailure(TensorIoError):
    """Underlying OS-level read/write failure."""


class MalformedHeader(TensorIoError):
    """Header bytes do not follow the format grammar."""


class UnsupportedMaxval(TensorIoError):
    """PGM/PPM maxval is not 255."""


class TruncatedData(TensorIoError):
    """Payload is shorter than the header promises."""


class TrailingData(TensorIoError):
    """Payload is longer than the header promises."""


class BadMagic(TensorIoError):
    """Magic bytes identify a different format."""


class BadVersion(TensorIoError):
    """Container version is not supported."""


class NonFiniteValue(TensorIoError):
    """A logits payload contains NaN or Inf."""
