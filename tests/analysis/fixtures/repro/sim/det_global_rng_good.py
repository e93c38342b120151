"""Fixture: draws come from a named seeded stream."""


def draw(streams):
    return streams.fresh("draw").random()
