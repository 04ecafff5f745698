"""Suite-wide checks.

Every field built from dense node samples with a declared live set
(``_live``) is checked against those samples: a declaration narrower than
the data would drop a component from every norm, so that norm would read
low and its check could pass falsely.  Producers that store only their
live components (``stack=``) have no other components to check.
"""

import numpy as np
import pytest

from pcgrav import fields


@pytest.fixture(autouse=True, scope="session")
def declared_live_sets_cover_the_data():
    stack_of = fields._stack_of

    def checked(data, live):
        if live is not None:
            # the declared set covers the scan iff no other component is
            # nonzero anywhere: only those are read, one at a time
            missed = [c.tolist() for c in np.argwhere(~np.asarray(live))
                      if np.any(data[tuple(c)] != 0.0)]
            assert not missed, (f"declared live {live}, but components "
                                f"{missed} are nonzero")
        return stack_of(data, live)

    fields._stack_of = checked
    yield
    fields._stack_of = stack_of
