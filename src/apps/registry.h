/**
 * @file
 * The application registry: every benchmark variant by name, for the
 * benchmark harnesses and examples.
 */

#ifndef TWOLAYER_APPS_REGISTRY_H_
#define TWOLAYER_APPS_REGISTRY_H_

#include <optional>
#include <string>
#include <vector>

#include "core/app.h"

namespace tli::apps {

/** All application variants (six apps; FFT has no optimized one). */
std::vector<core::AppVariant> allVariants();

/** The unoptimized variant of every application. */
std::vector<core::AppVariant> unoptimizedVariants();

/** The best variant of every application (optimized where present). */
std::vector<core::AppVariant> bestVariants();

/** Look up one variant by name; nullopt if there is no such pair. */
std::optional<core::AppVariant> lookupVariant(const std::string &app,
                                              const std::string &variant);

/**
 * Look up one variant; fatal if absent. For names fixed in code
 * (benchmarks, tests, examples); user input goes through
 * lookupVariant().
 */
core::AppVariant findVariant(const std::string &app,
                             const std::string &variant);

} // namespace tli::apps

#endif // TWOLAYER_APPS_REGISTRY_H_
