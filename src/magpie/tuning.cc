#include "magpie/tuning.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "sim/hash.h"
#include "sim/logging.h"

namespace tli::magpie {

namespace {

double
logOf(double v)
{
    return std::log(std::max(v, 1e-12));
}

} // namespace

void
TuningTable::finalize()
{
    TLI_ASSERT(clusters > 0 && procsPerCluster > 0,
               "tuning table needs a machine shape");
    TLI_ASSERT(!gaps.empty(), "tuning table needs at least one gap point");
    TLI_ASSERT(cells.size() == gaps.size(),
               "tuning table needs one cell block per gap point");
    for (auto &block : cells) {
        for (int op = 0; op < kOpCount; ++op) {
            OpCells &oc = block[op];
            TLI_ASSERT(!oc.empty(), "tuning table missing cells for ",
                       opName(static_cast<Op>(op)));
            std::sort(oc.begin(), oc.end(),
                      [](const Cell &a, const Cell &b) {
                          return a.sizeBytes < b.sizeBytes;
                      });
            for (std::size_t i = 1; i < oc.size(); ++i) {
                TLI_ASSERT(oc[i - 1].sizeBytes < oc[i].sizeBytes,
                           "duplicate tuning cell size for ",
                           opName(static_cast<Op>(op)));
            }
        }
    }
}

int
TuningTable::nearestGap(double bwMBs, double latMs) const
{
    TLI_ASSERT(!gaps.empty(), "empty tuning table");
    int best = 0;
    double bestDist = 0;
    for (std::size_t i = 0; i < gaps.size(); ++i) {
        const double db = logOf(bwMBs) - logOf(gaps[i].bwMBs);
        const double dl = logOf(latMs) - logOf(gaps[i].latMs);
        const double dist = db * db + dl * dl;
        if (i == 0 || dist < bestDist) {
            best = static_cast<int>(i);
            bestDist = dist;
        }
    }
    return best;
}

const Choice &
TuningTable::choose(int gap, Op op, std::uint64_t sizeBytes) const
{
    TLI_ASSERT(gap >= 0 && gap < static_cast<int>(cells.size()),
               "tuning gap index out of range: ", gap);
    const OpCells &oc = cells[gap][static_cast<int>(op)];
    const double want = logOf(static_cast<double>(std::max<std::uint64_t>(
        sizeBytes, 1)));
    int best = 0;
    double bestDist = 0;
    for (std::size_t i = 0; i < oc.size(); ++i) {
        const double have = logOf(static_cast<double>(
            std::max<std::uint64_t>(oc[i].sizeBytes, 1)));
        const double dist = std::fabs(want - have);
        if (i == 0 || dist < bestDist) {
            best = static_cast<int>(i);
            bestDist = dist;
        }
    }
    return oc[best].choice;
}

std::string
TuningTable::canonicalText() const
{
    std::string out = "tli-tuning-v1\n";
    char buf[128];
    std::snprintf(buf, sizeof buf, "machine=%dx%d\n", clusters,
                  procsPerCluster);
    out += buf;
    for (std::size_t g = 0; g < gaps.size(); ++g) {
        std::snprintf(buf, sizeof buf, "gap bw=%.17g lat=%.17g\n",
                      gaps[g].bwMBs, gaps[g].latMs);
        out += buf;
        for (int op = 0; op < kOpCount; ++op) {
            for (const Cell &cell : cells[g][op]) {
                std::snprintf(buf, sizeof buf, "%s %llu %s\n",
                              opName(static_cast<Op>(op)),
                              static_cast<unsigned long long>(
                                  cell.sizeBytes),
                              cell.choice.spec().c_str());
                out += buf;
            }
        }
    }
    return out;
}

std::uint64_t
TuningTable::contentHash() const
{
    return sim::fnv1a(canonicalText());
}

std::vector<Choice>
tuningCandidates(Op op)
{
    std::vector<Choice> c;
    c.push_back(Choice::magpie());
    if (op != Op::bcast)
        c.push_back(Choice::flat());
    if (segmentedSupported(op)) {
        c.push_back(Choice::segmented(1024));
        c.push_back(Choice::segmented(8192));
    }
    return c;
}

} // namespace tli::magpie
