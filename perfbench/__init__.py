"""Request-in/answer-out serving benchmark of the repository (see README.md)."""
