"""Exception hierarchy used across the package.

Every error raised by pagecast derives from ``PagecastError`` so callers can
catch one base class at the CLI boundary.
"""


class PagecastError(Exception):
    """Base class for all pagecast errors."""


# --- ingestion ---------------------------------------------------------------

class InvalidEncoding(PagecastError):
    """A text file's bytes are not UTF-8."""


class MissingColumn(PagecastError):
    """A requested column is absent from the CSV header."""


class DuplicateColumn(PagecastError):
    """A requested column is named twice, in the CSV header or the request."""


class UnparseableTimestamp(PagecastError):
    """A timestamp cell is neither numeric nor ISO-8601."""


class UnparseableValue(PagecastError):
    """A non-empty value cell does not parse as a real number."""


class DuplicateTimestamp(PagecastError):
    """Two rows land on the same time index."""


class EmptyFile(PagecastError):
    """The CSV has a header but no data rows."""


class InvalidInterval(PagecastError):
    """Aggregation interval is smaller than one tick."""


# --- page matrix / svd --------------------------------------------------------

class InvalidL(PagecastError):
    """Page-matrix window L outside [1, T] (a fit needs 2 <= L)."""


class OutOfRange(PagecastError):
    """A query time index or range outside what the model answers."""


class NonFiniteInput(PagecastError):
    """Matrix contains NaN or infinity."""


class RankOutOfRange(PagecastError):
    """Requested rank k outside [1, min(rows, cols)]."""


class EmptySpectrum(PagecastError):
    """Rank selection received no singular values."""


class ShapeMismatch(PagecastError):
    """Incompatible array shapes."""


class LengthMismatch(PagecastError):
    """Vector length differs from the expected size."""


# --- model / query -----------------------------------------------------------

class WidthMismatch(PagecastError):
    """Inserted row width differs from the model's series count."""


class GridMismatch(PagecastError):
    """Inserted rows do not start at the model's next time step."""


class UnknownSeries(PagecastError):
    """Series name or index not present in the model."""


class UntrainedModel(PagecastError):
    """Operation requires at least one trained sub-model."""


class UnstableForecast(PagecastError):
    """The forecast recurrence diverged: its mean or second moment is not
    finite at the requested horizon."""


class InvalidConfidence(PagecastError):
    """Confidence level outside the open interval (0, 100)."""


class InvalidParams(PagecastError):
    """Generator or hyper-parameter values out of range."""


# --- metrics -----------------------------------------------------------------

class DegenerateTruth(PagecastError):
    """Truth series has zero standard deviation."""


class IncompleteGrid(PagecastError):
    """Experiment grid has holes or non-finite errors."""


# --- persistence ---------------------------------------------------------------

class PersistenceError(PagecastError):
    """Base class for model-store errors."""


class CorruptManifest(PersistenceError):
    """Manifest missing, unreadable, or self-inconsistent."""


class ChecksumMismatch(PersistenceError):
    """An array file does not match its manifest checksum."""


class VersionUnsupported(PersistenceError):
    """Stored format version is newer than this library understands."""
