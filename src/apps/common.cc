#include "apps/common.h"

#include <sstream>

namespace tli::apps {

void
Machine::checkFinished(const std::vector<sim::ProcessId> &workers) const
{
    constexpr int maxNamed = 8;
    std::ostringstream stuck;
    int count = 0;
    for (std::size_t r = 0; r < workers.size(); ++r) {
        if (sim_.done(workers[r]))
            continue;
        if (count < maxNamed)
            stuck << (count == 0 ? "" : ", ") << r;
        else if (count == maxNamed)
            stuck << ", ...";
        ++count;
    }
    if (count > 0) {
        TLI_PANIC("deadlock on ", scenario_.describe(), ": ", count,
                  " of ", workers.size(),
                  " workers did not finish (ranks ", stuck.str(), ")");
    }
}

} // namespace tli::apps
