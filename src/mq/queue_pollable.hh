/**
 * @file
 * Per-queue scheduling units for multi-queue virtio backends.
 *
 * QueuePollable adapts one virtqueue's poll entry point to
 * sched::Pollable so the poll scheduler schedules queues, not
 * guests: a 4-queue NIC registers four pollables spread across
 * poll cores, each with its own weight (containment) and its own
 * served counter / flight-recorder attribution — or, under
 * negotiated passthrough, each alone on its own passthrough lane.
 */

#ifndef BMHIVE_MQ_QUEUE_POLLABLE_HH
#define BMHIVE_MQ_QUEUE_POLLABLE_HH

#include <functional>
#include <string>

#include "sched/pollable.hh"

namespace bmhive {
namespace mq {

/**
 * One virtqueue (or queue pair) as a schedulable unit. The owner
 * provides the poll thunk — typically a bound call into its
 * VirtioIoService that services exactly this queue and charges the
 * visiting scheduler core — and the owning backend, whose liveness
 * and stall state the unit mirrors.
 */
class QueuePollable : public sched::Pollable
{
  public:
    using PollFn = std::function<unsigned(unsigned budget)>;

    QueuePollable(std::string name, PollFn poll,
                  const sched::Pollable &owner)
        : name_(std::move(name)), poll_(std::move(poll)),
          owner_(owner)
    {}

    unsigned
    servicePoll(unsigned budget) override
    {
        return poll_(budget);
    }

    bool pollAlive() const override { return owner_.pollAlive(); }

    Tick
    pollBlockedUntil() const override
    {
        return owner_.pollBlockedUntil();
    }

    const std::string &pollableName() const override { return name_; }

  private:
    std::string name_;
    PollFn poll_;
    const sched::Pollable &owner_;
};

} // namespace mq
} // namespace bmhive

#endif // BMHIVE_MQ_QUEUE_POLLABLE_HH
