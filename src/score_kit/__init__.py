"""score_kit: finite-sample deployment-risk control for black-box predictors.

Given labeled calibration data reduced to (score, realized risk) pairs and
unlabeled test points reduced to scores, this package decides which test
points to deploy so that either the marginal deployment risk (expected risk
per candidate) or the selective deployment risk (expected average risk per
deployed point) stays below a user target, in finite samples, for any score
function.  Risk-adjusted e-values carry the evidence; an eBH step-up filter
turns them into selections; optional uniform "boosting" enlarges selections
without losing control; weighted variants handle covariate shift.

Each module's ``__all__`` is the one list of its public names; this package
re-exports them all.
"""

from . import baselines, core, mdr, models, sdr, selection, simulate
from .baselines import *
from .core import *
from .mdr import *
from .models import *
from .sdr import *
from .selection import *
from .simulate import *

__version__ = "0.1.0"

__all__ = [*baselines.__all__, *core.__all__, *mdr.__all__, *models.__all__,
           *sdr.__all__, *selection.__all__, *simulate.__all__]
