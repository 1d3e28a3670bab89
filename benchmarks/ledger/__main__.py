"""``python -m benchmarks.ledger`` is ``python3 benchmarks/ledger/run.py``."""

import sys

from benchmarks.ledger.run import main

sys.exit(main())
