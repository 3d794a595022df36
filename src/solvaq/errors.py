"""Exception types, and `read_text`, which reads every input text file so
that one that is not UTF-8 raises ParseError. The CLI maps these onto exit
codes: input/configuration problems exit 2, numerical non-convergence exits 1."""


class SolvaqError(Exception):
    """Base class for all solvaq errors."""


class ParseError(SolvaqError):
    """Malformed input text (geometry, basis, samples, config).

    Carries the 1-based line number of the offending line when known.
    """

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class ConfigError(SolvaqError):
    """Invalid or inconsistent run configuration."""


class CapacityError(ConfigError):
    """A size guard was exceeded (too many orbitals, determinants, ...)."""


class ConvergenceError(SolvaqError):
    """An iterative solver failed to reach its tolerance."""


class RecoveryBootstrapError(SolvaqError):
    """The sample set holds no symmetry-correct shot to seed the occupation
    distribution; rerun with a larger shot count or lower noise."""


def read_text(path, what: str) -> str:
    """The contents of a UTF-8 text file; a file that is not UTF-8 raises
    ParseError, which names it as ``what``."""
    with open(path, encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise ParseError(f"{what} {path} is not UTF-8 text: {exc}") from None
