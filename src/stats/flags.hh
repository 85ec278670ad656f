/**
 * @file
 * The one command-line flag table every dlsim binary parses with.
 *
 * A binary declares each flag once — name, one-line help and a typed
 * destination — and calls parse(). The table enforces one contract
 * for every tool: an unknown flag, a repeated flag, a missing value,
 * a malformed number, a value below the flag's bound or values that
 * break a declared constraint between flags prints
 * `<tool>: <flag> ...` on stderr and exits 2 before any work starts;
 * `--help`/`-h` prints usage generated from the declarations and
 * exits 0. Arguments that are not flags come back as positionals.
 *
 * The table can also render its destinations back into flags
 * (render()), so a struct whose fields are declared here once —
 * check::FuzzCase — prints a command line that parses back into it.
 *
 * Usage:
 * @code
 *   int requests = 500;
 *   bool enhanced = false;
 *   stats::FlagTable flags("tool");
 *   flags.integer("requests", "measured requests", requests, 1)
 *       .toggle("enhanced", "enable the skip unit", enhanced);
 *   flags.parse(argc, argv);
 * @endcode
 */

#ifndef DLSIM_STATS_FLAGS_HH
#define DLSIM_STATS_FLAGS_HH

#include <algorithm>
#include <cstdio>
#include <functional>
#include <limits>
#include <optional>
#include <string>
#include <type_traits>
#include <vector>

namespace dlsim::stats
{

/**
 * Parse all of `text` as a decimal integer in [min, max].
 * @throw std::invalid_argument naming the problem.
 */
long long parseInteger(const std::string &text, long long min,
                       long long max);

/** Unsigned twin of parseInteger, for values up to 2^64 - 1. */
unsigned long long parseUnsigned(const std::string &text,
                                 unsigned long long min,
                                 unsigned long long max);

/**
 * Declarative flag table. Destinations are held by reference: the
 * table must not outlive them.
 */
class FlagTable
{
  public:
    /** Store one value; throw std::invalid_argument to reject it. */
    using Setter = std::function<void(const std::string &value)>;
    /** The value render() emits, or nullopt to leave the flag out. */
    using Getter = std::function<std::optional<std::string>()>;

    /** @param synopsis Usage text after the tool name. */
    explicit FlagTable(std::string tool,
                       std::string synopsis = "[options]");

    /** A switch: giving the flag sets `on`. */
    FlagTable &toggle(const char *name, const char *help, bool &on);

    /** An integer no lower than `min`. */
    template <typename Int>
    FlagTable &
    integer(const char *name, const char *help, Int &value,
            long long min = std::numeric_limits<long long>::min())
    {
        static_assert(std::is_integral_v<Int> &&
                      !std::is_same_v<Int, bool>);
        using Lim = std::numeric_limits<Int>;
        return custom(
            name, "N", help,
            [&value, min](const std::string &text) {
                if constexpr (std::is_signed_v<Int>)
                    value = static_cast<Int>(parseInteger(
                        text, std::max<long long>(min, Lim::min()),
                        Lim::max()));
                else
                    value = static_cast<Int>(parseUnsigned(
                        text,
                        static_cast<unsigned long long>(
                            std::max(min, 0LL)),
                        Lim::max()));
            },
            [&value] {
                return std::optional<std::string>(
                    std::to_string(value));
            });
    }

    /** A floating-point number (never rendered). */
    FlagTable &real(const char *name, const char *help,
                    double &value);

    /** A string, e.g. a path; rendered only when non-empty. */
    FlagTable &text(const char *name, const char *metavar,
                    const char *help, std::string &value);

    /** An enum-like value parsed by `set`, rendered by `get`. */
    FlagTable &custom(const char *name, const char *metavar,
                      const char *help, Setter set, Getter get = {});

    /** Render the last declared flag only while `gate` is true. */
    FlagTable &onlyWith(const bool &gate);

    /**
     * A constraint between flags, checked once every flag is stored:
     * `check` returns "" when the values fit together, else a
     * diagnostic that names the flag at fault, and parse() fails
     * with it.
     */
    FlagTable &require(std::function<std::string()> check);

    /**
     * Parse argv[1..argc), storing every flag's value. Exits 2 on a
     * contract violation or on more than `maxPositional` positional
     * arguments; exits 0 after printing usage for --help/-h.
     * @return The positional arguments, in order.
     */
    std::vector<std::string> parse(int argc, const char *const *argv,
                                   std::size_t maxPositional = 0) const;

    /** The flags (` --name value` each) that reproduce the current
     *  destination values. */
    std::string render() const;

    /** Print the generated usage text. */
    void printUsage(std::FILE *to) const;

  private:
    struct Flag
    {
        std::string name;    ///< Without the leading "--".
        std::string metavar; ///< Empty for a switch.
        std::string help;
        Setter set;
        Getter get;
    };

    [[noreturn]] void fail(const std::string &message) const;

    std::string tool_;
    std::string synopsis_;
    std::vector<Flag> flags_;
    std::vector<std::function<std::string()>> checks_;
};

} // namespace dlsim::stats

#endif // DLSIM_STATS_FLAGS_HH
