"""``python -m kahlercheck``: the ``kahlercheck`` command."""
from .cli import main

raise SystemExit(main())
