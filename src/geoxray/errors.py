"""Exception hierarchy and process exit codes.

Every failure mode that the command line surface distinguishes gets its own
exception class, whose ``exit_code`` is the documented process exit code.
``read_text`` reads a scene or data file, ``config_keys`` checks a scene's keys,
``config_number`` and ``config_numbers`` read its numbers, and ``config_build``
builds an object from them, or each raises the validation error that names
the file or the key path.
"""

import math

EXIT_VALIDATION = 2
EXIT_COVERAGE = 3
EXIT_ILL_POSED = 4
EXIT_NON_INJECTIVE = 5
EXIT_TRAPPING = 6


class GeoxrayError(Exception):
    """Base class for all library errors."""

    exit_code = 1


class SceneValidationError(GeoxrayError):
    """Bad configuration, geometry, or preconditions (dims, tilings, domains)."""

    exit_code = EXIT_VALIDATION


class DomainError(SceneValidationError):
    """A chart point lies outside the domain an operation is defined on."""


class FanConstructionError(SceneValidationError):
    """The offset-fan construction failed (base geodesic exits too early, etc.)."""


class CoverageError(GeoxrayError):
    """A reconstruction step has no usable geodesics: the plan is too sparse."""

    exit_code = EXIT_COVERAGE


class IllPosedStepError(GeoxrayError):
    """A linear solve exceeded the condition number cap."""

    exit_code = EXIT_ILL_POSED


class IllPosedSamplingError(IllPosedStepError):
    """The sample directions given to the local sector solver are unusable."""


class NearParallelSectorError(IllPosedSamplingError):
    """A tangent line nearly parallels a sector edge; chord length blows up."""


class NonInjectiveWeightError(GeoxrayError):
    """The weight matrix is rank deficient somewhere it must be injective."""

    exit_code = EXIT_NON_INJECTIVE


class TrappingSuspectedError(GeoxrayError):
    """A geodesic exceeded the arclength cap without leaving the domain (the sample budget only pauses a row)."""

    exit_code = EXIT_TRAPPING


class TangencyWarning(UserWarning):
    """A geodesic slid along a tiling edge for a non-negligible length."""


def config_number(value, key: str, integer: bool = False, minimum: float = -math.inf):
    """``value`` as a finite float at least ``minimum``, or as an int when
    ``integer``; anything else (no number, a boolean, NaN, inf, a fraction, too
    small) raises a SceneValidationError naming ``key``."""
    if integer and type(value) is int and value >= minimum:
        return value
    try:
        x = math.nan if isinstance(value, bool) else float(value)
    except (TypeError, ValueError, OverflowError):
        x = math.nan
    if not math.isfinite(x) or (integer and not x.is_integer()) or x < minimum:
        bound = "" if minimum == -math.inf else f" >= {minimum:g}"
        raise SceneValidationError(
            f"{key}: expected {'an integer' if integer else 'a finite number'}{bound}, got {value!r}")
    return int(x) if integer else x


def config_numbers(values, key: str, integer: bool = False) -> list:
    """A list of numbers, each read by ``config_number``."""
    if not isinstance(values, (list, tuple)):
        raise SceneValidationError(f"{key}: expected a list, got {values!r}")
    return [config_number(v, key, integer) for v in values]


def config_keys(cfg: dict, key: str, known) -> None:
    """Raise a SceneValidationError naming the first key of the object ``cfg`` at ``key`` that is not ``known``."""
    for name in cfg:
        if name not in known:
            raise SceneValidationError(f"{key}.{name}: unknown key (expected one of {', '.join(known)})")


def config_build(key: str, build, *args):
    """``build(*args)``, with ``key`` put before the message of a SceneValidationError it raises."""
    try:
        return build(*args)
    except SceneValidationError as exc:
        raise SceneValidationError(f"{key}: {exc}") from None


def read_text(path, what: str) -> str:
    """The UTF-8 text at ``path`` (universal newlines), or a SceneValidationError that names the ``what`` file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except FileNotFoundError:
        raise SceneValidationError(f"{what} file not found: {path}") from None
    except (OSError, UnicodeDecodeError) as exc:
        reason = exc.strerror if isinstance(exc, OSError) else "not UTF-8 text"
        raise SceneValidationError(f"{what} file {path}: {reason}") from None
