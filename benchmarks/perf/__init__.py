"""Wall-clock benchmark of the simulator: see ``README.md`` beside this file."""
