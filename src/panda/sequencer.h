/**
 * @file
 * A totally-ordered-broadcast sequencer service. One designated rank
 * hands out consecutive sequence numbers; the service supports
 * migrating the sequencer between ranks at runtime (the ASP
 * optimization: move the sequencer into the sending cluster so
 * sequence requests stay off the wide-area links).
 */

#ifndef TWOLAYER_PANDA_SEQUENCER_H_
#define TWOLAYER_PANDA_SEQUENCER_H_

#include <cstdint>
#include <deque>

#include "panda/panda.h"
#include "sim/task.h"

namespace tli::panda {

/**
 * The sequencer service. Call start() once per rank (spawning the
 * server processes), then acquire() from clients. Exactly one server
 * is active at a time; migrate() moves the counter state to another
 * rank. Callers are responsible for tracking where the active
 * sequencer currently lives (in the paper's ASP this is derivable from
 * the static broadcast schedule).
 */
class SequencerService
{
  public:
    /**
     * @param panda the messaging layer
     * @param tag   the message tag the service owns
     * @param initial_host rank that starts as the active sequencer
     */
    SequencerService(Panda &panda, int tag, Rank initial_host);

    /** Spawn the server process for @p rank (call for every rank). */
    void startServer(Rank rank);

    /**
     * Obtain the next sequence number from the sequencer currently at
     * @p host. One round trip to @p host.
     */
    sim::Task<std::int64_t> acquire(Rank self, Rank host);

    /**
     * Move the sequencer from @p from to @p to. Completes when the old
     * host has relinquished (the activation message is then in flight
     * to the new host; requests racing ahead of it are buffered).
     */
    sim::Task<void> migrate(Rank self, Rank from, Rank to);

    /** Stop all server processes (send poison to every rank). */
    void shutdown(Rank self);

    /** Number of sequence numbers handed out so far (via any host). */
    std::int64_t issued() const { return issued_; }

  private:
    enum class Kind { request, migrate, activate, stop };

    struct Ctl
    {
        Kind kind;
        Rank target = invalidNode;        // migrate: new host
        std::int64_t counter = 0;         // activate: state
    };

    sim::Task<void> server(Rank self);

    Panda &panda_;
    int tag_;
    Rank initialHost_;
    std::int64_t issued_ = 0;
};

} // namespace tli::panda

#endif // TWOLAYER_PANDA_SEQUENCER_H_
