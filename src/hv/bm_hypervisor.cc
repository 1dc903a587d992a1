#include "hv/bm_hypervisor.hh"

#include <utility>

#include "base/logging.hh"
#include "virtio/virtio_net.hh"

namespace bmhive {
namespace hv {

BmHypervisor::BmHypervisor(Simulation &sim, std::string name,
                           hw::ComputeBoard &board,
                           iobond::IoBond &bond,
                           hw::CpuExecutor &core,
                           sched::PollScheduler &sched,
                           std::optional<unsigned> shared_core,
                           cloud::VSwitch &vswitch,
                           cloud::MacAddr mac,
                           cloud::BlockService *storage,
                           cloud::Volume *volume, bool rate_limited)
    : SimObject(sim, std::move(name)), board_(board), bond_(bond),
      vswitch_(&vswitch), mac_(mac), storage_(storage),
      volume_(volume), rateLimited_(rate_limited), core_(&core),
      sched_(&sched), sharedCore_(shared_core),
      faultInjected_(
          metrics().counter(this->name() + ".fault.injected")),
      respawns_(metrics().counter(this->name() + ".respawns")),
      mqQueueRegs_(
          metrics().counter(this->name() + ".mq.queue_regs")),
      mqPassBinds_(metrics().counter(this->name() +
                                     ".mq.passthrough_binds")),
      mqPassDemotions_(metrics().counter(
          this->name() + ".mq.passthrough_demotions"))
{
    panic_if(shared_core && &sched.coreExecutor(*shared_core) != &core,
             this->name(),
             ": scheduler core does not back this process's PMD");
    IoServiceParams params;
    // Each poll reads the IO-Bond mailbox over PCIe; each
    // completion batch writes the tail register (0.8 us, paper
    // section 3.4.3). Payload copies are IO-Bond DMA, not CPU.
    params.pollRegisterCost = bond.params().mailboxAccess;
    params.completionRegisterCost = bond.params().mailboxAccess;
    params.perPacketCopyCost = 0;
    params.suppressGuestNotify = false; // the doorbell is hardware

    serviceParams_ = params;
    service_ = std::make_unique<VirtioIoService>(
        sim, this->name() + ".svc", core, params);

    port_ = vswitch_->addPort(mac, [this](const cloud::Packet &pkt) {
        service_->enqueueRx(pkt);
    });

    bond_.setReadyCallback(
        [this](unsigned fn) { onFunctionReady(fn); });
    // The doorbell mailbox write is what wakes a sleeping poll
    // core. MQ doorbells carry (fn, q) so only the queue's own unit
    // spins up; handle_ tracks the current service generation.
    bond_.setQueueWake(
        [this](unsigned fn, unsigned q) { wakeQueue(fn, q); });
    // Guest set-queue-pairs commits reshape the vSwitch RSS spread
    // (a no-op until the port is in RSS mode).
    bond_.setQueuePairsCallback([this](unsigned fn,
                                       unsigned pairs) {
        if (connected_ && int(fn) == netFn_)
            vswitch_->setPortRssQueues(port_, pairs);
    });
    sim_.faults().add(this->name(),
                      [this](const fault::FaultSpec &s) {
                          return injectFault(s);
                      });
}

BmHypervisor::~BmHypervisor()
{
    unregisterService();
    sim_.faults().remove(name());
    bond_.setReadyCallback(nullptr);
    bond_.setQueueWake(nullptr);
    bond_.setQueuePairsCallback(nullptr);
}

void
BmHypervisor::setPollWeight(double w)
{
    // Quarantine/Suspect demotes a passthrough guest back under
    // the shared scheduler, where a fractional weight actually
    // bites; full weight re-promotes.
    if (passthroughQueues() > 0 && w < 1.0)
        mqPassDemotions_.inc();
    pollWeight_ = w;
    if (syncPassthrough())
        return;
    sched_->setWeight(handle_, w);
    for (auto &r : queueRegs_)
        sched_->setWeight(r.handle, w);
    sched_->setWeight(conHandle_, w);
}

void
BmHypervisor::setPollPeriod(Tick t)
{
    pollPeriod_ = t;
    sched_->setPeriod(handle_, t);
}

void
BmHypervisor::setMqPassthrough(bool on)
{
    passthroughWanted_ = on;
    syncPassthrough();
}

bool
BmHypervisor::syncPassthrough()
{
    bool want = passthroughWanted_ && pollWeight_ >= 1.0;
    if (queueRegs_.empty() || want == (passthroughQueues() > 0))
        return false;
    unregisterService();
    registerQueueUnits();
    return true;
}

unsigned
BmHypervisor::passthroughQueues() const
{
    unsigned n = 0;
    for (const auto &r : queueRegs_)
        n += r.pass ? 1 : 0;
    return n;
}

bool
BmHypervisor::pollWedged(Tick window) const
{
    if (sched_->wedged(handle_, window) ||
        sched_->wedged(conHandle_, window))
        return true;
    for (const auto &r : queueRegs_) {
        if (sched_->wedged(r.handle, window))
            return true;
    }
    return false;
}

void
BmHypervisor::startService()
{
    service_->start();
    service_->setSchedDelayStamps(sharedCore_.has_value());
    if (sharedCore_ && (service_->netPairCount() > 1 ||
                        service_->blkQueueCount() > 1)) {
        // Multi-queue: the pool cores (or passthrough lanes) own
        // each queue individually — registering the whole service
        // as well would double-serve every ring.
        registerQueueUnits();
        return;
    }
    handle_ = sharedCore_
                  ? sched_->add(*sharedCore_, *service_, pollWeight_)
                  : sched_->addPinned(sched::LaneKind::Dedicated,
                                      *core_, *service_, pollPeriod_);
    sched_->setFlightRecorder(handle_, flight_);
    // Backend-side arrivals (vSwitch rx, console input) wake the
    // core the same way guest doorbells do.
    service_->setWakeHook([this](int) { sched_->wake(handle_); });
}

void
BmHypervisor::stopService(bool dead)
{
    if (dead)
        service_->markDead();
    else
        service_->stop();
    unregisterService();
}

void
BmHypervisor::registerQueueUnits()
{
    VirtioIoService *svc = service_.get();
    bool pass = passthroughWanted_ && pollWeight_ >= 1.0;
    unsigned ncores = sched_->coreCount();
    unsigned k = 0;
    auto add = [&](bool net, unsigned idx) {
        QueueReg r;
        r.net = net;
        r.idx = idx;
        r.pass = pass;
        // Round-robin outward from the home core: one guest's
        // queues burn different poll cores in parallel.
        r.core = (*sharedCore_ + k++) % ncores;
        hw::CpuExecutor *exec = &sched_->coreExecutor(r.core);
        std::string qn = name() +
                         (net ? ".mq.netp" : ".mq.blkq") +
                         std::to_string(idx);
        auto poll = [svc, net, idx, exec](unsigned b) {
            return net ? svc->servicePollNetPair(idx, b, exec)
                       : svc->servicePollBlkQueue(idx, b, exec);
        };
        r.pollable =
            std::make_unique<mq::QueuePollable>(qn, poll, *svc);
        if (pass) {
            r.handle = sched_->addPinned(sched::LaneKind::Passthrough,
                                         *exec, *r.pollable);
            mqPassBinds_.inc();
        } else {
            r.handle =
                sched_->add(r.core, *r.pollable, pollWeight_);
            sched_->setFlightRecorder(r.handle, flight_);
        }
        mqQueueRegs_.inc();
        queueRegs_.push_back(std::move(r));
    };
    for (unsigned p = 0; p < svc->netPairCount(); ++p)
        add(true, p);
    for (unsigned q = 0; q < svc->blkQueueCount(); ++q)
        add(false, q);

    // The console stays a small shared unit on the home core even
    // under passthrough — it is never the fast path.
    conPollable_ = std::make_unique<mq::QueuePollable>(
        name() + ".mq.con",
        [svc](unsigned b) { return svc->servicePollConsole(b); },
        *svc);
    conHandle_ = sched_->add(*sharedCore_, *conPollable_,
                             pollWeight_);
    sched_->setFlightRecorder(conHandle_, flight_);

    // Steered rx wakes only the target pair's unit; console input
    // wakes the console unit.
    service_->setWakeHook([this](int pair) {
        QueueReg *r = pair < 0 ? nullptr : findUnit(true, pair);
        sched_->wake(r ? r->handle : conHandle_);
    });
}

BmHypervisor::QueueReg *
BmHypervisor::findUnit(bool net, unsigned idx)
{
    for (auto &r : queueRegs_) {
        if (r.net == net && r.idx == idx)
            return &r;
    }
    return nullptr;
}

void
BmHypervisor::wakeQueue(unsigned fn, unsigned q)
{
    if (queueRegs_.empty()) {
        sched_->wake(handle_);
        return;
    }
    // Net shadow queues interleave rx0,tx0,rx1,tx1: both directions
    // of pair q/2 land on the same unit. The console function (or
    // a pair beyond what registered) wakes the console unit.
    QueueReg *r = nullptr;
    if (int(fn) == netFn_)
        r = findUnit(true, q / 2);
    else if (int(fn) == blkFn_)
        r = findUnit(false, q);
    sched_->wake(r ? r->handle : conHandle_);
}

void
BmHypervisor::setFlightRecorder(obs::FlightRecorder *fr)
{
    flight_ = fr;
    sched_->setFlightRecorder(handle_, fr);
    for (auto &r : queueRegs_)
        sched_->setFlightRecorder(r.handle, fr);
    sched_->setFlightRecorder(conHandle_, fr);
}

void
BmHypervisor::unregisterService()
{
    sched_->remove(handle_);
    handle_ = {};
    for (auto &r : queueRegs_)
        sched_->remove(r.handle);
    queueRegs_.clear();
    sched_->remove(conHandle_);
    conHandle_ = {};
    conPollable_.reset();
}

bool
BmHypervisor::injectFault(const fault::FaultSpec &spec)
{
    switch (spec.kind) {
      case fault::FaultKind::HvStall:
        service_->stall(spec.duration ? spec.duration
                                      : usToTicks(200));
        faultInjected_.inc();
        return true;
      case fault::FaultKind::HvCrash:
        crash();
        faultInjected_.inc();
        return true;
      default:
        return false;
    }
}

void
BmHypervisor::crash()
{
    stopService(true);
    crashed_ = true;
    crashedAt_ = curTick();
    logDebug("bm-hypervisor process crashed");
}

void
BmHypervisor::replaceService(const std::string &suffix)
{
    if (service_->pollAlive())
        service_->markDead();
    unregisterService();
    // Respawn and migration are triggered from the control
    // partition (watchdog, fleet controller); the fresh generation
    // must still home in this guest's partition, sharing its cell
    // so a later migration re-homes it too.
    psim::PartitionScope scope(sim_, partitionCell(), partition());
    auto next = std::make_unique<VirtioIoService>(
        sim_, name() + ".svc." + suffix, *core_, serviceParams_);
    next->setIntegrity(blkIntegrity_);
    // The old process stays allocated until teardown so any event
    // still holding it unwinds against a dead service, not freed
    // memory.
    retired_.push_back(std::move(service_));
    service_ = std::move(next);
    netFn_ = -1;
    blkFn_ = -1;
    for (unsigned fn = 0; fn < bond_.numFunctions(); ++fn)
        attachFunction(fn);
    wireTracers();
    startService();
    crashed_ = false;
}

void
BmHypervisor::setBlkIntegrity(bool on)
{
    blkIntegrity_ = on;
    service_->setIntegrity(on);
}

void
BmHypervisor::respawn()
{
    panic_if(!connected_, name(), ": respawn before first connect");
    if (service_->pollAlive())
        service_->markDead();
    // Republish whatever the dead process had picked up but not
    // completed, in original submission order; the fresh device
    // views below resume from the rings' live indices and re-serve
    // exactly those chains.
    for (unsigned fn = 0; fn < bond_.numFunctions(); ++fn) {
        for (unsigned q = 0; q < bond_.function(fn).numQueues();
             ++q) {
            if (bond_.shadowReady(fn, q))
                bond_.recoverQueue(fn, q);
        }
    }
    ++respawnCount_;
    replaceService("r" + std::to_string(respawnCount_));
    respawns_.inc();
    if (flight_)
        flight_->record(curTick(), obs::FlightEvent::Respawn, 0, 0,
                        respawnCount_);
    logDebug("bm-hypervisor respawned (generation ",
             respawnCount_, ")");
}

void
BmHypervisor::migrateTo(hw::CpuExecutor &core,
                        sched::PollScheduler &sched,
                        std::optional<unsigned> shared_core)
{
    panic_if(!connected_, name(), ": migrate before first connect");
    if (service_->pollAlive())
        service_->markDead();
    // Drop the registration with the *source* scheduler before the
    // member is re-pointed at the target's (normally the drain or
    // the crash already did).
    unregisterService();
    core_ = &core;
    sched_ = &sched;
    sharedCore_ = shared_core;
    ++migrations_;
    // No recoverQueue here: IoBond::rebase already republished the
    // in-flight window into the target server's memory; the fresh
    // views attach to the rebased layouts and resume mid-stream.
    replaceService("m" + std::to_string(migrations_));
    logDebug("bm-hypervisor migrated onto ", core.name(),
             " (migration ", migrations_, ")");
}

void
BmHypervisor::rebindVSwitch(cloud::VSwitch &sw)
{
    if (&sw == vswitch_)
        return; // same server switch: the port stays put
    vswitch_->removePort(port_);
    vswitch_ = &sw;
    port_ = vswitch_->addPort(mac_,
                              [this](const cloud::Packet &pkt) {
                                  service_->enqueueRx(pkt);
                              });
    // RSS (if the guest runs multi-queue) is re-established by the
    // attachFunction pass of the migration's replaceService, which
    // runs after this rebind and sees the fresh port id.
}

void
BmHypervisor::powerOnGuest()
{
    board_.powerOn();
}

void
BmHypervisor::powerOffGuest()
{
    stopService(false);
    connected_ = false;
    board_.powerOff();
}

bool
BmHypervisor::attachFunction(unsigned fn)
{
    auto type = bond_.function(fn).deviceType();
    if (type == virtio::DeviceType::Net) {
        if (!bond_.shadowReady(fn, virtio::NET_RXQ) ||
            !bond_.shadowReady(fn, virtio::NET_TXQ))
            return false;
        auto limiter =
            rateLimited_
                ? cloud::InstanceLimits::cloudNetwork()
                : cloud::DualRateLimiter::unlimited();
        service_->attachNet(
            bond_.baseMemory(),
            bond_.shadowLayout(fn, virtio::NET_RXQ),
            bond_.shadowLayout(fn, virtio::NET_TXQ),
            [this, fn] {
                bond_.backendCompleted(fn, virtio::NET_RXQ);
            },
            [this, fn] {
                bond_.backendCompleted(fn, virtio::NET_TXQ);
            },
            *vswitch_, port_, limiter);
        netFn_ = int(fn);
        // Every further pair whose shadow rings the guest driver
        // enabled (VIRTIO_NET_F_MQ). The device serves all live
        // rings; the set-queue-pairs commitment governs only how
        // wide RSS spreads arriving traffic.
        auto &f = bond_.function(fn);
        for (unsigned p = 1; p < f.maxQueuePairs(); ++p) {
            if (!bond_.shadowReady(fn, virtio::netRxQueue(p)) ||
                !bond_.shadowReady(fn, virtio::netTxQueue(p)))
                continue;
            service_->attachNetPair(
                p, bond_.shadowLayout(fn, virtio::netRxQueue(p)),
                bond_.shadowLayout(fn, virtio::netTxQueue(p)),
                [this, fn, p] {
                    bond_.backendCompleted(fn,
                                           virtio::netRxQueue(p));
                },
                [this, fn, p] {
                    bond_.backendCompleted(fn,
                                           virtio::netTxQueue(p));
                });
        }
        if (service_->netPairCount() > 1) {
            vswitch_->setPortRss(
                port_, f.activeQueuePairs(),
                [this](const cloud::Packet &pkt, unsigned q) {
                    service_->enqueueRx(pkt, q);
                });
        }
        return true;
    }
    if (type == virtio::DeviceType::Console) {
        if (!bond_.shadowReady(fn, 0) || !bond_.shadowReady(fn, 1))
            return false;
        service_->attachConsole(
            bond_.baseMemory(), bond_.shadowLayout(fn, 0),
            bond_.shadowLayout(fn, 1),
            [this, fn] { bond_.backendCompleted(fn, 0); },
            [this, fn] { bond_.backendCompleted(fn, 1); },
            [this](const std::string &text) {
                if (consoleSink_)
                    consoleSink_(text);
            });
        return true;
    }
    if (type == virtio::DeviceType::Block) {
        if (!bond_.shadowReady(fn, 0))
            return false;
        panic_if(storage_ == nullptr || volume_ == nullptr,
                 name(), ": blk function without storage backing");
        auto limiter =
            rateLimited_
                ? cloud::InstanceLimits::cloudStorage()
                : cloud::DualRateLimiter::unlimited();
        service_->attachBlk(
            bond_.baseMemory(), bond_.shadowLayout(fn, 0),
            [this, fn] { bond_.backendCompleted(fn, 0); },
            *storage_, *volume_, limiter);
        blkFn_ = int(fn);
        // Further submission queues (VIRTIO_BLK_F_MQ).
        for (unsigned q = 1; q < bond_.function(fn).maxQueuePairs();
             ++q) {
            if (!bond_.shadowReady(fn, q))
                continue;
            service_->attachBlkQueue(
                q, bond_.shadowLayout(fn, q),
                [this, fn, q] { bond_.backendCompleted(fn, q); });
        }
        return true;
    }
    return false;
}

void
BmHypervisor::onFunctionReady(unsigned fn)
{
    // Initial bring-up goes through connectBackends, and a dead
    // process cannot react (respawn re-attaches everything).
    if (!connected_ || !service_->pollAlive())
        return;
    // The guest driver reinitialized after DEVICE_NEEDS_RESET: its
    // rings moved, so the backend views must be rebuilt on the new
    // shadow layouts.
    if (attachFunction(fn))
        wireTracers();
}

bool
BmHypervisor::connectBackends()
{
    panic_if(connected_, name(), ": backends already connected");
    bool any = false;
    for (unsigned fn = 0; fn < bond_.numFunctions(); ++fn)
        any = attachFunction(fn) || any;
    if (any) {
        connected_ = true;
        wireTracers();
        startService();
    }
    return any;
}

void
BmHypervisor::enableIoTracing()
{
    if (!netTracer_) {
        netTracer_ = std::make_unique<obs::RequestTracer>(
            name() + ".net", metrics(), &traceSink());
        // The guest's net driver suppresses tx completion MSIs and
        // reclaims used buffers from its xmit path, so a tx flow's
        // last observable event is the completion DMA.
        netTracer_->setFinalStage(obs::Stage::CompleteDma);
    }
    if (!blkTracer_)
        blkTracer_ = std::make_unique<obs::RequestTracer>(
            name() + ".blk", metrics(), &traceSink());
    traceIo_ = true;
    if (connected_)
        wireTracers();
}

void
BmHypervisor::wireTracers()
{
    if (!traceIo_)
        return;
    // Only guest-initiated directions carry request spans; the rx
    // ring's buffer turnaround is not a request latency.
    if (netFn_ >= 0) {
        bond_.setQueueTracer(unsigned(netFn_), virtio::NET_TXQ,
                             netTracer_.get());
        service_->setNetTxTracer(
            netTracer_.get(),
            obs::RequestTracer::flowKey(unsigned(netFn_),
                                        virtio::NET_TXQ, 0));
        // Per-pair key bases keep MQ spans distinct: the flow key
        // carries the pair's tx shadow-queue index.
        for (unsigned p = 1; p < service_->netPairCount(); ++p) {
            bond_.setQueueTracer(unsigned(netFn_),
                                 virtio::netTxQueue(p),
                                 netTracer_.get());
            service_->setNetTxKeyBase(
                p, obs::RequestTracer::flowKey(
                       unsigned(netFn_), virtio::netTxQueue(p),
                       0));
        }
    }
    if (blkFn_ >= 0) {
        bond_.setQueueTracer(unsigned(blkFn_), 0, blkTracer_.get());
        service_->setBlkTracer(
            blkTracer_.get(),
            obs::RequestTracer::flowKey(unsigned(blkFn_), 0, 0));
        for (unsigned q = 1; q < service_->blkQueueCount(); ++q) {
            bond_.setQueueTracer(unsigned(blkFn_), q,
                                 blkTracer_.get());
            service_->setBlkKeyBase(
                q, obs::RequestTracer::flowKey(unsigned(blkFn_), q,
                                               0));
        }
    }
}

bool
BmHypervisor::updateGuestFirmware(const hw::FirmwareImage &fw)
{
    return board_.updateFirmware(fw, providerKey);
}

void
BmHypervisor::liveUpgrade(std::function<void(Tick)> done)
{
    panic_if(!connected_, name(), ": live upgrade while detached");
    Tick t0 = curTick();
    // Stop taking new work; in-flight block I/O keeps completing.
    stopService(false);
    finishUpgrade(t0, std::move(done));
}

void
BmHypervisor::finishUpgrade(Tick t0, std::function<void(Tick)> done)
{
    if (service_->blkInflight() > 0) {
        auto *ev = new OneShotEvent(
            [this, t0, done] { finishUpgrade(t0, done); },
            {name(), ".quiesce"});
        scheduleIn(ev, usToTicks(10));
        return;
    }
    ++upgrades_;
    auto next = std::make_unique<VirtioIoService>(
        sim_, name() + ".svc.v" + std::to_string(upgrades_ + 1),
        *core_, serviceParams_);
    next->adoptFrom(*service_);
    // The old process stays allocated until teardown (its
    // in-flight lambdas are gone once quiesced).
    retired_.push_back(std::move(service_));
    service_ = std::move(next);
    startService();
    if (done)
        done(curTick() - t0);
}

} // namespace hv
} // namespace bmhive
