class SizeLimitError(Exception):
    """Raised when an exact/enumerative operation would exceed its size limit."""


class ParseError(Exception):
    """Syntax error in a formula or knowledge-base file."""

    def __init__(self, message, line=None, column=None):
        if line is not None:
            at = f"line {line}" if column is None else f"line {line}, column {column}"
            message = f"{message} ({at})"
        super().__init__(message)
        self.line = line
        self.column = column
