/**
 * @file
 * Guest virtio-net driver: tx with optional kick batching (the
 * standard virtio optimization: publish several buffers, ring the
 * doorbell once) and an rx path that keeps the receive ring
 * replenished and delivers packets to the guest network stack.
 *
 * With VIRTIO_NET_F_MQ negotiated the driver runs several rx/tx
 * queue pairs: tx is spread XPS-style by flow id (a flow always
 * uses the same pair, keeping per-flow order), each pair has its
 * own buffer arenas, MSI vector, and NAPI state, and the committed
 * pair count is written through the device's curr_pairs config
 * field (the ctrl-style set-queue-pairs command). The driver
 * writes its *requested* count raw — a request above the offered
 * maximum is the device's to clamp and count as a guest fault —
 * and then trusts the device's read-back.
 */

#ifndef BMHIVE_GUEST_NET_DRIVER_HH
#define BMHIVE_GUEST_NET_DRIVER_HH

#include <functional>

#include "base/stats.hh"
#include "cloud/packet.hh"
#include "guest/packet_wire.hh"
#include "guest/virtio_driver.hh"
#include "virtio/virtio_net.hh"

namespace bmhive {
namespace guest {

class NetDriver : public VirtioDriver
{
  public:
    using RxHandler = std::function<void(const cloud::Packet &)>;

    NetDriver(GuestOs &os, int slot, cloud::MacAddr mac);

    /**
     * Initialize the device and fill the rx ring(s).
     * @param queue_size  ring size to program
     * @param queue_pairs pairs to request: 0 = everything the
     *        device offers; a count above the offer is written
     *        anyway and the device clamps it (contained fault).
     */
    void start(std::uint16_t queue_size = 256,
               unsigned queue_pairs = 0);

    cloud::MacAddr mac() const { return mac_; }

    /** Pair count actually in effect after negotiation. */
    unsigned activeQueuePairs() const { return activePairs_; }

    /**
     * Queue one packet for transmission on the pair its flow id
     * steers to (XPS analog: flow % active pairs).
     * @param kick_now  ring the doorbell immediately; otherwise the
     *        caller batches and calls kickTx() later
     * @param cpu_ctx   vCPU doing the send (charged the doorbell)
     * @return false if that pair's tx ring is full (caller retries
     *         after completions).
     */
    bool sendPacket(const cloud::Packet &pkt, bool kick_now,
                    hw::CpuExecutor &cpu_ctx);

    /** Ring every pending tx doorbell (after a sendPacket batch). */
    void kickTx(hw::CpuExecutor &cpu_ctx);

    /** Packets are delivered to @p fn as they arrive. */
    void setRxHandler(RxHandler fn) { rxHandler_ = std::move(fn); }

    /**
     * Model the guest network stack's receive work: each packet
     * costs @p per_packet on one of @p workers vCPU contexts
     * (round-robin), and the handler runs after that work. With
     * cost 0 (default) packets are delivered inline from the IRQ.
     */
    void
    setRxProcessing(Tick per_packet, unsigned workers)
    {
        rxCost_ = per_packet;
        rxWorkers_ = workers ? workers : 1;
    }

    /** Free tx slots right now (summed over the active pairs). */
    std::uint16_t txSpace() const;

    std::uint64_t txCompleted() const { return txDone_.value(); }
    std::uint64_t rxDelivered() const { return rxDone_.value(); }
    std::uint64_t resets() const { return resets_.value(); }
    /** Received frames discarded for a bad checksum. */
    std::uint64_t rxCsumDrops() const { return rxCsumDrops_.value(); }

    /**
     * Seal every transmitted frame and verify every received one
     * (drop + count on mismatch). On by default; off restores the
     * pre-integrity wire format semantics for A/B benchmarks.
     */
    void setIntegrity(bool on) { integrity_ = on; }
    bool integrityEnabled() const { return integrity_; }

  private:
    /** Per-pair rings, arenas, and NAPI state. */
    struct PairState
    {
        Addr txArena = 0;
        Addr rxArena = 0;
        std::vector<std::uint16_t> txFreeSlots;
        std::vector<std::uint16_t> txSlotOfHead;
        std::vector<std::uint16_t> rxSlotOfHead;
        bool napiActive = false;
    };

    void fillRx(unsigned pair);
    void txInterrupt(unsigned pair);
    void rxInterrupt(unsigned pair);
    void napiPoll(unsigned pair);

    /** Commit the pair count, then slots + rx fill per pair. */
    void setupRings();

    /**
     * DEVICE_NEEDS_RESET recovery: in-flight tx frames and posted
     * rx buffers died with the old rings; reinitialize on fresh
     * rings (arenas are reused — the ring sizes match) and refill
     * rx. Lost frames are the network's problem, as on real NICs.
     */
    void resetAndReinit();

    /** Per-descriptor-slot buffer base (2 KiB each). */
    Addr txBuf(unsigned pair, std::uint16_t slot) const;
    Addr rxBuf(unsigned pair, std::uint16_t slot) const;

    cloud::MacAddr mac_;
    RxHandler rxHandler_;
    std::vector<PairState> pairs_;
    /** Reused by txInterrupt / napiPoll (an rx handler may send,
     *  which reaps tx inside the rx loop, hence two buffers). */
    std::vector<virtio::UsedCompletion> txUsed_;
    std::vector<virtio::UsedCompletion> rxUsed_;
    unsigned activePairs_ = 1;
    unsigned requestedPairs_ = 0;
    Counter txDone_;
    Counter rxDone_;
    Counter resets_;
    Counter rxCsumDrops_;
    bool integrity_ = true;
    std::uint64_t wanted_ = 0;
    std::uint16_t queueSize_ = 0;
    Tick rxCost_ = 0;
    unsigned rxWorkers_ = 1;
    unsigned rxNext_ = 0;

    static constexpr Bytes bufBytes = 2048;
};

} // namespace guest
} // namespace bmhive

#endif // BMHIVE_GUEST_NET_DRIVER_HH
