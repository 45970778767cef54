"""End-to-end benchmark of the experiment pipeline (see README.md)."""
