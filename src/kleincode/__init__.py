"""Affine variety codes from the Klein quartic over GF(8).

Library layout:

* ``gf``        -- GF(8) arithmetic (log/antilog tables)
* ``poly``      -- sparse bivariate polynomials, the one monomial order,
  division modes
* ``groebner``  -- Buchberger, normal forms, footprints
* ``codes``     -- variety, evaluation codes, weight/distance oracles
* ``params``    -- parametric coefficients and constraint stores
* ``casebound`` -- the symbolic case-split engine and trace verifier
* ``autosearch``-- bounded automatic rediscovery of case-split bounds
* ``klein``     -- the curve's setup (field and order handles, basis,
  footprint, variety, class supports, monomial parsing) and static constants
* ``cli``       -- command-line front end (``kleincode ...``)
"""

__version__ = "0.1.0"
