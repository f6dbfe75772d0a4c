"""Time the imports of a fresh interpreter and print them as JSON.

Without arguments: the import of ``spotspectra`` and ``spotspectra.cli``.
With ``--split``: numpy, then ``scipy.integrate``, then the rest of
``spotspectra``, imported one after the other.
"""

import json
import sys
from time import perf_counter

if "--split" in sys.argv:
    t0 = perf_counter()
    import numpy  # noqa: F401

    t1 = perf_counter()
    import scipy.integrate  # noqa: F401

    t2 = perf_counter()
    import spotspectra  # noqa: F401
    import spotspectra.cli  # noqa: F401

    t3 = perf_counter()
    print(json.dumps({"numpy_s": t1 - t0, "scipy_integrate_s": t2 - t1, "spotspectra_rest_s": t3 - t2}))
else:
    t0 = perf_counter()
    import spotspectra  # noqa: F401,F811
    import spotspectra.cli  # noqa: F401,F811

    print(json.dumps({"import_s": perf_counter() - t0}))
