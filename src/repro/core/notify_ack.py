"""The NOTIFY-ACK protocol [Kadav & Kruus 2016], the paper's foil.

Serial computation graph (Figure 2a) plus the backward ACK edge: a
worker may not Send iteration ``k``'s update until every out-going
neighbor has ACKed consumption of iteration ``k-1``'s.  This solves
the mixed-version problem but over-restricts the iteration gap to

    Iter(i) - Iter(j) <= min(len(Path_{j->i}), 2 * len(Path_{i->j}))

(Section 3.3), which is what prevents backup workers and bounded
staleness from helping — the motivation for Hop's queue-based design.

An ACK channel is a counted token queue primed with one token (the
implicit ACK(-1)), so NOTIFY-ACK runs on Hop's own pieces: the cluster
builds the ACK channels with the per-edge token-queue builder, and
:class:`NotifyAckWorker` is a :class:`~repro.core.worker.HopWorker`
that keeps only its serial loop.  Elasticity is hop's membership
lifecycle (drain / rewire / re-sync), with added edges re-primed with
one ACK (:class:`~repro.membership.NotifyAckMembership`).
"""

from __future__ import annotations

from repro.core.queues import TokenGate
from repro.core.worker import HopWorker
from repro.net.message import CONTROL_SIZE


class NotifyAckWorker(HopWorker):
    """One worker running NOTIFY-ACK (serial graph + ACK gating).

    Built with :data:`~repro.core.config.STANDARD` (every in-neighbor's
    update of the iteration, no send suppression) and the ACK channels
    as ``token_queues``: ``token_queues[(receiver, sender)]`` holds
    ``receiver``'s ACKs gating ``sender``'s next Send.  Membership
    bindings, pending-receive repair, the leave / re-sync lifecycle and
    Send are Hop's; time blocked at the ACK gate accrues to
    ``token_wait`` and is reported as ``ack_wait_mean``.
    """

    def stats(self) -> dict:
        stats = self._common_stats()
        stats["ack_wait_mean"] = self.token_wait.mean
        return stats

    def _send_acks(self, iteration: int) -> None:
        """NOTIFY consumed -> ACK to every in-coming neighbor."""
        consumers = self._token_consumers
        if self.membership is not None:
            # An edge created by a rewire carries ACKs from its
            # activation iteration on, like its updates.
            activation = self._in_activation
            consumers = [
                j for j in consumers if activation.get(j, 0) <= iteration
            ]
        self.network.fan_out(
            self.wid,
            consumers,
            CONTROL_SIZE,
            1,
            [self.token_queues[(self.wid, j)].put for j in consumers],
            control=True,
        )

    def run(self):
        env = self.env
        wid = self.wid
        token_queues = self.token_queues
        membership = self.membership
        elastic = membership is not None
        churn_event = self.churn_event if elastic else None
        x = self.model.get_params()
        k = 0
        if elastic and not membership.is_active(wid):
            joined = yield from self._late_join(x, churn_event)
            if joined is None:
                return 0
            x, k = joined
            churn_event = None  # a late joiner has no leave scripted
        while k < self.max_iter:
            if elastic:
                if (
                    churn_event is not None
                    and churn_event.leave_at is not None
                    and k >= churn_event.leave_at
                ):
                    resumed = yield from self._churn_leave(x, k, churn_event)
                    churn_event = None
                    if resumed is None:
                        return self.iterations_completed
                    x, k = resumed
                    continue  # re-enter against the rejoin epoch
                membership.on_iteration(wid, k, env.now)
            start = env.now
            self.state.iterations[wid] = k
            self.gap_tracker.record(wid, k)
            self._log_iter(start, k)

            # Compute and Apply (serial graph, Figure 2a).
            self.model.set_params(x)
            ticket = self.compute.submit(self.model, self.batcher)
            yield env.timeout(self.compute_model.duration(wid, k))
            loss, grad = ticket.result()
            applied = x + self.optimizer.step(x, grad, k)

            # Wait for ACK(k-1) from all out-going neighbors before Send(k).
            ack_start = env.now
            providers = self._token_providers
            if elastic:
                activation = self._out_activation
                providers = [
                    j for j in providers if activation.get(j, 0) <= k
                ]
            if providers:
                yield TokenGate(env, [token_queues[(j, wid)] for j in providers])
            self.token_wait.add(env.now - ack_start)

            self._send(applied, k)

            # Recv + Reduce, then notify consumption with ACK(k).  The
            # reduce lands in the reusable scratch; every read of the
            # previous ``x`` happened above.
            recv_start = env.now
            x = yield from self.recv.recv_reduce(self, k)
            self.recv_wait.add(env.now - recv_start)
            self._send_acks(k)

            self._log_loss(env.now, loss)
            self.losses.add(loss)
            self.iterations_completed = k + 1
            # Joiners re-sync from a peer's end-of-iteration snapshot.
            self.current_params = x.copy() if self.snapshot_params else x
            duration = env.now - start
            self.iteration_durations.add(duration)
            self._log_duration(env.now, duration)
            k += 1

        return self._finish(x)
