"""Exception hierarchy shared across the package."""


class BicohomError(Exception):
    """Base class for all package-specific failures."""


class IllDefined(BicohomError):
    """A matrix does not carry source relators into target relators."""


class NotContained(BicohomError):
    """A claimed subgroup inclusion fails on some generator."""


class ParentMismatch(BicohomError):
    """Two subgroups (or elements) live in different ambient groups."""


class ConventionViolation(BicohomError):
    """Input grid fails its declared sign/commutation axioms."""


class HypothesisViolated(BicohomError):
    """An exactness precondition fails, so the conclusion is not guaranteed."""


class InternalChaseFailure(BicohomError):
    """A preimage guaranteed by certified exactness was not found.

    Raised only when an exactness certificate must have been wrong: this is
    a bug signal, never a normal data error.
    """


class NotAnIsomorphism(BicohomError, ValueError):
    """A morphism asked to be inverted is not an isomorphism."""


class NotAModule(BicohomError):
    """A group is not killed by the requested modulus."""


class ParseError(BicohomError):
    """A serialized complex or a command-line value is malformed; the
    message names the location."""


class BadArgument(BicohomError, ValueError):
    """An argument outside what a function takes, such as clashing moduli
    or a factor of the wrong convention; the command line exits 2 on it."""
