"""Fixture: hot event subclasses declare __slots__."""


class Event:
    pass


class Ping(Event):
    __slots__ = ("env",)

    def __init__(self, env):
        self.env = env


class TokenGate(Event):
    __slots__ = ("queues",)


class AuditedGate(TokenGate):
    __slots__ = ("audit",)
