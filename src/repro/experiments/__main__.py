"""``python -m repro.experiments`` — same CLI as ``tms-experiments``:
tables/figures and the ``compile``, ``validate``, ``chaos``, ``report``,
``serve`` and ``submit`` subcommands."""

from .runner import main

raise SystemExit(main())
