#include "obs/request_tracer.hh"

#include <cstdio>
#include <utility>

#include "base/logging.hh"

namespace bmhive {
namespace obs {

const char *
stageName(Stage s)
{
    switch (s) {
      case Stage::GuestPost:
        return "guest_post";
      case Stage::ShadowSync:
        return "shadow_sync";
      case Stage::SchedDelay:
        return "sched_delay";
      case Stage::PollPickup:
        return "poll_pickup";
      case Stage::Service:
        return "service";
      case Stage::CompleteDma:
        return "complete_dma";
      case Stage::GuestIrq:
        return "guest_irq";
    }
    return "?";
}

RequestTracer::RequestTracer(std::string path,
                             MetricRegistry &registry,
                             TraceSink *sink)
    : path_(std::move(path)), sink_(sink)
{
    for (unsigned i = 1; i < numStages; ++i) {
        stage_[i] = &registry.latency(
            path_ + ".stage." + stageName(Stage(i)));
    }
    total_ = &registry.latency(path_ + ".stage.total");
    started_ = &registry.counter(path_ + ".flows.started");
    completed_ = &registry.counter(path_ + ".flows.completed");
    unmatched_ = &registry.counter(path_ + ".flows.unmatched");
    evicted_ = &registry.counter(path_ + ".flows.evicted");
    aborted_ = &registry.counter(path_ + ".flows.aborted");
    // Shared across every tracer in the registry: one place to see
    // whether any guest is leaking open flows.
    evictedGlobal_ = &registry.counter("obs.tracer.evicted_flows");
    if (sink_)
        lane_ = sink_->lane(path_);
}

void
RequestTracer::stamp(std::uint64_t key, Stage s, Tick now)
{
    if (s == Stage::GuestPost) {
        // (Re)open the flow; a key reuse implicitly abandons any
        // earlier flow that never saw its MSI.
        OpenFlow f;
        f.at[0] = now;
        f.stageSeen = 1;
        f.last = Stage::GuestPost;
        f.seq = ++seq_;
        open_[key] = f;
        order_.push_back({key, f.seq});
        started_->inc();
        enforceBound();
        if (sink_ && sink_->enabled())
            sink_->recordInstant(stageName(s), "io", now, lane_,
                                 key);
        return;
    }

    OpenFlow *found = open_.find(key);
    if (found == nullptr) {
        // Backend-initiated work (rx delivery) or a flow opened
        // before tracing was enabled: not an error, just unmatched.
        unmatched_->inc();
        return;
    }
    OpenFlow &f = *found;
    Tick prev = f.at[unsigned(f.last)];
    panic_if(now < prev, path_, ": flow ", key, " stamped ",
             stageName(s), " before ", stageName(f.last));
    stage_[unsigned(s)]->record(now - prev);
    if (sink_ && sink_->enabled())
        sink_->recordComplete(stageName(s), "io", prev, now - prev,
                              lane_, key);
    f.at[unsigned(s)] = now;
    f.stageSeen |= 1u << unsigned(s);
    f.last = s;

    if (s == finalStage_) {
        Tick e2e = now - f.at[0];
        total_->record(e2e);
        completed_->inc();
        FlowRecord rec;
        rec.key = key;
        rec.at = f.at;
        rec.stageSeen = f.stageSeen;
        recent_.push_back(rec);
        if (recent_.size() > recentCap)
            recent_.pop_front();
        open_.erase(key);
        if (closeHook_)
            closeHook_(e2e, now);
    }
}

void
RequestTracer::enforceBound()
{
    while (open_.size() > maxOpen_ && !order_.empty()) {
        auto [key, seq] = order_.front();
        order_.pop_front();
        const OpenFlow *f = open_.find(key);
        // Stale entry: the flow closed, was dropped, or the key was
        // reopened under a newer seq. Nothing to evict for it.
        if (f == nullptr || f->seq != seq)
            continue;
        open_.erase(key);
        evicted_->inc();
        evictedGlobal_->inc();
    }
    // The order log itself must stay bounded too: stale entries
    // (closed, dropped, or reopened flows) pile up behind a
    // long-lived open flow and the loop above never reaches them.
    // Compact once they outnumber live flows by a full table —
    // amortized O(1) per open.
    if (order_.size() > open_.size() + maxOpen_) {
        RingQueue<std::pair<std::uint64_t, std::uint64_t>> live;
        for (std::size_t i = 0; i < order_.size(); ++i) {
            auto [key, seq] = order_[i];
            const OpenFlow *f = open_.find(key);
            if (f != nullptr && f->seq == seq)
                live.push_back({key, seq});
        }
        order_ = std::move(live);
    }
}

void
RequestTracer::dropOpen(unsigned fn, unsigned q)
{
    std::uint64_t prefix = flowKey(fn, q, 0);
    aborted_->inc(open_.eraseIf([prefix](std::uint64_t key,
                                         const OpenFlow &) {
        return (key & ~0xffffull) == prefix;
    }));
    // order_ entries for the dropped keys go stale and are popped
    // lazily by enforceBound().
}

const LatencyRecorder &
RequestTracer::stageLatency(Stage s) const
{
    panic_if(s == Stage::GuestPost,
             path_, ": GuestPost opens flows, it has no latency");
    return *stage_[unsigned(s)];
}

std::string
RequestTracer::breakdown() const
{
    std::string out;
    char buf[128];
    std::snprintf(buf, sizeof(buf), "%s I/O path breakdown (%llu "
                  "flows)\n",
                  path_.c_str(),
                  (unsigned long long)completed_->value());
    out += buf;
    double sum = 0.0;
    for (unsigned i = 1; i < numStages; ++i) {
        const LatencyRecorder &r = *stage_[i];
        std::snprintf(buf, sizeof(buf),
                      "  %-14s %8.2f us mean  (n=%llu)\n",
                      stageName(Stage(i)), r.meanUs(),
                      (unsigned long long)r.count());
        out += buf;
        sum += r.meanUs();
    }
    std::snprintf(buf, sizeof(buf),
                  "  %-14s %8.2f us (stage sum %.2f us)\n",
                  "end-to-end", total_->meanUs(), sum);
    out += buf;
    return out;
}

} // namespace obs
} // namespace bmhive
