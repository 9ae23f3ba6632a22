"""End-to-end benchmark of the iGQ service (see run.py)."""
