"""End-to-end CleanML protocol benchmark (see ``run.py``)."""
