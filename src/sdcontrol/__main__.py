"""``python -m sdcontrol <command>``: the command-line interface of ``sdcontrol``."""

from .harness import main

main()
