/**
 * @file
 * The settings table: every SystemConfig value a user can set without
 * writing C++, under one key that all three front ends share.
 *
 *   spec variant lines   variant NAME : KEY=VALUE ...
 *   critmem-sim flags    --KEY VALUE (a bool key also takes a bare
 *                        --KEY, meaning 1)
 *   repro lines          reproCommand() prints --KEY VALUE for every
 *                        key whose value differs from the job's preset
 *
 * Each entry parses a value into a SystemConfig and prints it back
 * from one, so a repro line re-creates its job's config by
 * construction (Settings.ReproLinesParseBackToTheJobConfig checks
 * every job of every shipped spec). Run-mode flags (--app, --instrs,
 * --check, ...) are not settings; critmem-sim parses those itself.
 */

#ifndef CRITMEM_EXEC_SETTINGS_HH
#define CRITMEM_EXEC_SETTINGS_HH

#include <cstdint>
#include <span>
#include <string>

#include "sim/config.hh"

namespace critmem::exec
{

/** One settable configuration value. */
struct Setting
{
    /** Spec key and critmem-sim flag name (without the dashes). */
    const char *key;
    /** Usage placeholder for the value; nullptr marks a bool key. */
    const char *arg;
    /** One-line usage text. */
    const char *help;
    /** Parse @p value into @p cfg; throws std::runtime_error. */
    void (*apply)(SystemConfig &cfg, const std::string &value);
    /** The value in @p cfg, as apply() accepts it back. */
    std::string (*print)(const SystemConfig &cfg);
};

/** Every setting, in usage and repro-line order. */
std::span<const Setting> settingsTable();

/** The setting named @p key, or nullptr. */
const Setting *findSetting(const std::string &key);

/**
 * Apply one KEY=VALUE setting to @p cfg. Throws std::runtime_error
 * on an unknown key or a value that does not parse.
 */
void applySetting(SystemConfig &cfg, const std::string &key,
                  const std::string &value);

/**
 * critmem-sim flag parsing. When argv[i] is --KEY for a setting,
 * apply it, consuming the value argument (for a bool key only when
 * the next argument is a bool literal), leave @p i on the last
 * argument consumed and return true; otherwise return false and
 * leave everything untouched. Throws std::runtime_error on a missing
 * or bad value.
 */
bool applySettingFlag(SystemConfig &cfg, int argc,
                      const char *const *argv, int &i);

/**
 * " --KEY VALUE" for every setting whose value in @p cfg differs from
 * @p preset (a bool that is now 1 prints as a bare --KEY).
 */
std::string settingFlags(const SystemConfig &cfg,
                         const SystemConfig &preset);

/** The usage lines of every setting flag, for critmem-sim. */
std::string settingsUsage();

/**
 * A decimal unsigned number with nothing around it; throws
 * std::runtime_error naming @p key otherwise.
 */
std::uint64_t parseUint(const std::string &key, const std::string &value);

/** 1/true/yes or 0/false/no; throws std::runtime_error otherwise. */
bool parseBool(const std::string &key, const std::string &value);

} // namespace critmem::exec

#endif // CRITMEM_EXEC_SETTINGS_HH
