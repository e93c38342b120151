"""Fixture: perf-slots must flag a dict-ful hot event subclass."""


class TokenGate:
    pass


class AuditedGate(TokenGate):
    def __init__(self, env):
        self.env = env
