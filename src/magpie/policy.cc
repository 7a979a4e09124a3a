#include "magpie/policy.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "magpie/tuning.h"
#include "sim/logging.h"

namespace tli::magpie {

namespace {

constexpr const char *kOpNames[kOpCount] = {
    "barrier",    "bcast",     "gather",   "gatherv",
    "scatter",    "scatterv",  "allgather", "allgatherv",
    "alltoall",   "alltoallv", "reduce",   "allreduce",
    "reduce_scatter", "scan",
};

/** Rounds of a doubling loop `for (d = 1; d < n; d <<= 1)`. */
int
ceilLog2(int n)
{
    int rounds = 0;
    for (int dist = 1; dist < n; dist <<= 1)
        ++rounds;
    return rounds;
}

/** Tag phases one call of @p op under @p c may consume at @p p ranks. */
int
phasesNeeded(Op op, const Choice &c, int p)
{
    switch (c.family) {
      case Family::flat:
        switch (op) {
          case Op::barrier:
          case Op::scan:
            return std::max(1, ceilLog2(p));
          case Op::alltoall:
          case Op::alltoallv:
            // Pairwise exchange uses phases 1..p-1.
            return std::max(2, p);
          case Op::allreduce:
          case Op::reduce_scatter:
            return 2;
          default:
            return 1;
        }
      case Family::magpie:
        switch (op) {
          case Op::scan:
            // Phases 0..19 local rounds, 20 chain, 21 offset bcast.
            return 22;
          case Op::barrier:
          case Op::allreduce:
            return 4;
          case Op::allgather:
          case Op::allgatherv:
          case Op::alltoall:
          case Op::alltoallv:
          case Op::reduce_scatter:
            return 3;
          default:
            return 2;
        }
      case Family::segmented:
        return op == Op::allreduce ? 4 : 2;
    }
    return 2;
}

std::string
renderSegBytes(std::uint32_t bytes)
{
    constexpr std::uint32_t kMi = 1024u * 1024u;
    char buf[32];
    if (bytes % kMi == 0)
        std::snprintf(buf, sizeof buf, "%uM", bytes / kMi);
    else if (bytes % 1024u == 0)
        std::snprintf(buf, sizeof buf, "%uk", bytes / 1024u);
    else
        std::snprintf(buf, sizeof buf, "%u", bytes);
    return buf;
}

std::optional<std::uint32_t>
parseSegBytes(std::string_view s)
{
    std::uint64_t value = 0;
    std::size_t i = 0;
    for (; i < s.size() && s[i] >= '0' && s[i] <= '9'; ++i) {
        value = value * 10 + static_cast<std::uint64_t>(s[i] - '0');
        if (value > (1ull << 32))
            return std::nullopt;
    }
    if (i == 0)
        return std::nullopt;
    if (i < s.size()) {
        const std::string_view suffix = s.substr(i);
        if (suffix == "k" || suffix == "K")
            value *= 1024;
        else if (suffix == "M")
            value *= 1024u * 1024u;
        else
            return std::nullopt;
    }
    if (value == 0 || value > 0xFFFFFFFFull)
        return std::nullopt;
    return static_cast<std::uint32_t>(value);
}

} // namespace

const char *
opName(Op op)
{
    return kOpNames[static_cast<int>(op)];
}

std::optional<Op>
parseOp(std::string_view text)
{
    for (int i = 0; i < kOpCount; ++i) {
        if (text == kOpNames[i])
            return static_cast<Op>(i);
    }
    return std::nullopt;
}

std::string
Choice::spec() const
{
    switch (family) {
      case Family::flat:
        return "flat";
      case Family::magpie:
        return "magpie";
      case Family::segmented:
        return "seg:" + renderSegBytes(segmentBytes);
    }
    return "?";
}

std::optional<Choice>
parseChoice(std::string_view text)
{
    if (text == "flat")
        return Choice::flat();
    if (text == "magpie")
        return Choice::magpie();
    constexpr std::string_view kSeg = "seg:";
    if (text.substr(0, kSeg.size()) == kSeg) {
        auto bytes = parseSegBytes(text.substr(kSeg.size()));
        if (!bytes)
            return std::nullopt;
        return Choice::segmented(*bytes);
    }
    return std::nullopt;
}

bool
segmentedSupported(Op op)
{
    return op == Op::bcast || op == Op::reduce || op == Op::allreduce;
}

bool
keyedBySize(Op op)
{
    switch (op) {
      case Op::barrier:
      case Op::scatter:
      case Op::gatherv:
      case Op::scatterv:
      case Op::allgatherv:
      case Op::alltoallv:
        return false;
      default:
        return true;
    }
}

CollectivePolicy
CollectivePolicy::magpie()
{
    CollectivePolicy p;
    p.choices_.fill(Choice::magpie());
    return p;
}

CollectivePolicy
CollectivePolicy::tuned(std::shared_ptr<const TuningTable> table)
{
    TLI_ASSERT(table != nullptr, "tuned policy needs a table");
    CollectivePolicy p;
    p.table_ = std::move(table);
    return p;
}

void
CollectivePolicy::set(Op op, Choice c)
{
    TLI_ASSERT(!isTuned(), "cannot override choices on a tuned policy");
    if (c.family == Family::segmented) {
        TLI_ASSERT(segmentedSupported(op), "no segmented variant for ",
                   opName(op));
        TLI_ASSERT(c.segmentBytes > 0, "segment size must be positive");
    }
    choices_[static_cast<int>(op)] = c;
}

CollectivePolicy
CollectivePolicy::boundTo(double bwMBs, double latMs) const
{
    TLI_ASSERT(isTuned(), "boundTo only applies to tuned policies");
    CollectivePolicy p = *this;
    p.gapIndex_ = table_->nearestGap(bwMBs, latMs);
    return p;
}

bool
CollectivePolicy::isDefault() const
{
    if (isTuned())
        return false;
    for (const Choice &c : choices_) {
        if (!(c == Choice::flat()))
            return false;
    }
    return true;
}

std::string
CollectivePolicy::spec() const
{
    if (isTuned()) {
        char buf[32];
        std::snprintf(buf, sizeof buf, "tuned:%016llx",
                      static_cast<unsigned long long>(
                          table_->contentHash()));
        return buf;
    }
    int magpieCount = 0;
    int flatCount = 0;
    for (const Choice &c : choices_) {
        if (c == Choice::magpie())
            ++magpieCount;
        else if (c == Choice::flat())
            ++flatCount;
    }
    const Choice head =
        magpieCount > flatCount ? Choice::magpie() : Choice::flat();
    std::string out = head.spec();
    for (int i = 0; i < kOpCount; ++i) {
        if (!(choices_[i] == head)) {
            out += ',';
            out += kOpNames[i];
            out += '=';
            out += choices_[i].spec();
        }
    }
    return out;
}

int
CollectivePolicy::phasesPerCall(int totalRanks) const
{
    int need = 1;
    for (int i = 0; i < kOpCount; ++i) {
        const Op op = static_cast<Op>(i);
        if (isTuned()) {
            // Worst case over every family Tuned may select for op.
            need = std::max(need,
                            phasesNeeded(op, Choice::flat(), totalRanks));
            need = std::max(
                need, phasesNeeded(op, Choice::magpie(), totalRanks));
            if (segmentedSupported(op))
                need = std::max(need, phasesNeeded(op, Choice::segmented(1),
                                                   totalRanks));
        } else {
            need = std::max(need,
                            phasesNeeded(op, choices_[i], totalRanks));
        }
    }
    return need;
}

bool
CollectivePolicy::operator==(const CollectivePolicy &o) const
{
    if (isTuned() != o.isTuned())
        return false;
    if (isTuned()) {
        return gapIndex_ == o.gapIndex_ &&
               table_->contentHash() == o.table_->contentHash();
    }
    return choices_ == o.choices_;
}

std::optional<CollectivePolicy>
parseCollectivePolicy(std::string_view text)
{
    if (text.empty() || text.substr(0, 6) == "tuned:")
        return std::nullopt;

    CollectivePolicy policy;
    bool first = true;
    while (!text.empty() || first) {
        const std::size_t comma = text.find(',');
        const std::string_view token = text.substr(0, comma);
        text = comma == std::string_view::npos
                   ? std::string_view{}
                   : text.substr(comma + 1);
        if (comma != std::string_view::npos && text.empty())
            return std::nullopt; // trailing comma
        if (first && token == "flat") {
            first = false;
            continue;
        }
        if (first && token == "magpie") {
            policy = CollectivePolicy::magpie();
            first = false;
            continue;
        }
        first = false;
        const std::size_t eq = token.find('=');
        if (eq == std::string_view::npos)
            return std::nullopt;
        const auto op = parseOp(token.substr(0, eq));
        const auto choice = parseChoice(token.substr(eq + 1));
        if (!op || !choice)
            return std::nullopt;
        if (choice->family == Family::segmented &&
            !segmentedSupported(*op))
            return std::nullopt;
        policy.set(*op, *choice);
    }
    return policy;
}

} // namespace tli::magpie
