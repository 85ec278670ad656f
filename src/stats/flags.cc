#include "stats/flags.hh"

#include <charconv>
#include <cstdlib>
#include <stdexcept>
#include <utility>

namespace dlsim::stats
{

namespace
{

/** Parse all of `text` into `out`; false when anything is left. */
template <typename T>
bool
whole(const std::string &text, T &out, std::errc &ec)
{
    const char *end = text.data() + text.size();
    const auto r = std::from_chars(text.data(), end, out);
    ec = r.ec;
    return r.ec == std::errc() && r.ptr == end;
}

template <typename T>
T
checked(const std::string &text, T min, T max)
{
    T v{};
    std::errc ec;
    if (!whole(text, v, ec)) {
        if (ec == std::errc::result_out_of_range)
            throw std::invalid_argument(text + " is out of range");
        // An unsigned flag given a negative integer is below its
        // bound, not malformed.
        long long s = 0;
        if (std::is_unsigned_v<T> && whole(text, s, ec))
            throw std::invalid_argument(
                text + " is below the minimum " +
                std::to_string(min));
        throw std::invalid_argument("'" + text +
                                    "' is not an integer");
    }
    if (v < min)
        throw std::invalid_argument(text + " is below the minimum " +
                                    std::to_string(min));
    if (v > max)
        throw std::invalid_argument(text + " is above the maximum " +
                                    std::to_string(max));
    return v;
}

} // namespace

long long
parseInteger(const std::string &text, long long min, long long max)
{
    return checked(text, min, max);
}

unsigned long long
parseUnsigned(const std::string &text, unsigned long long min,
              unsigned long long max)
{
    return checked(text, min, max);
}

FlagTable::FlagTable(std::string tool, std::string synopsis)
    : tool_(std::move(tool)), synopsis_(std::move(synopsis))
{
}

FlagTable &
FlagTable::toggle(const char *name, const char *help, bool &on)
{
    return custom(
        name, "", help, [&on](const std::string &) { on = true; },
        [&on] {
            return on ? std::optional<std::string>("")
                      : std::nullopt;
        });
}

FlagTable &
FlagTable::real(const char *name, const char *help, double &value)
{
    return custom(name, "X", help, [&value](const std::string &text) {
        char *end = nullptr;
        value = std::strtod(text.c_str(), &end);
        if (text.empty() || *end != '\0')
            throw std::invalid_argument("'" + text +
                                        "' is not a number");
    });
}

FlagTable &
FlagTable::text(const char *name, const char *metavar,
                const char *help, std::string &value)
{
    return custom(
        name, metavar, help,
        [&value](const std::string &text) { value = text; },
        [&value] {
            return value.empty() ? std::nullopt
                                 : std::optional<std::string>(value);
        });
}

FlagTable &
FlagTable::custom(const char *name, const char *metavar,
                  const char *help, Setter set, Getter get)
{
    flags_.push_back(
        {name, metavar, help, std::move(set), std::move(get)});
    return *this;
}

FlagTable &
FlagTable::onlyWith(const bool &gate)
{
    Getter inner = std::move(flags_.back().get);
    flags_.back().get = [inner, &gate] {
        return gate ? inner() : std::nullopt;
    };
    return *this;
}

FlagTable &
FlagTable::require(std::function<std::string()> check)
{
    checks_.push_back(std::move(check));
    return *this;
}

std::vector<std::string>
FlagTable::parse(int argc, const char *const *argv,
                 std::size_t maxPositional) const
{
    std::vector<std::string> positional;
    std::vector<bool> seen(flags_.size(), false);
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            printUsage(stdout);
            std::exit(0);
        }
        if (arg.size() < 2 || arg[0] != '-') {
            positional.push_back(arg);
            continue;
        }
        std::size_t f = 0;
        while (f < flags_.size() && arg != "--" + flags_[f].name)
            ++f;
        if (f == flags_.size())
            fail("unknown flag " + arg);
        const Flag &flag = flags_[f];
        std::string value;
        if (!flag.metavar.empty()) {
            // A following flag is a missing value, never the value.
            if (i + 1 >= argc ||
                std::string(argv[i + 1]).rfind("--", 0) == 0)
                fail(arg + " requires a value");
            value = argv[++i];
        }
        if (seen[f])
            fail(arg + " given more than once");
        seen[f] = true;
        try {
            flag.set(value);
        } catch (const std::exception &e) {
            fail(arg + ": " + e.what());
        }
    }
    if (positional.size() > maxPositional)
        fail("unexpected argument '" + positional[maxPositional] +
             "'");
    for (const auto &check : checks_) {
        const std::string problem = check();
        if (!problem.empty())
            fail(problem);
    }
    return positional;
}

std::string
FlagTable::render() const
{
    std::string out;
    for (const Flag &flag : flags_) {
        const auto value = flag.get ? flag.get() : std::nullopt;
        if (!value)
            continue;
        out += " --" + flag.name;
        if (!flag.metavar.empty())
            out += " " + *value;
    }
    return out;
}

void
FlagTable::printUsage(std::FILE *to) const
{
    std::fprintf(to, "usage: %s %s\n\n", tool_.c_str(),
                 synopsis_.c_str());
    std::size_t width = 6; // "--help"
    for (const Flag &flag : flags_)
        width = std::max(width, flag.name.size() + 3 +
                                    flag.metavar.size());
    const auto line = [&](const std::string &lhs,
                          const std::string &help) {
        std::fprintf(to, "  %-*s  %s\n", static_cast<int>(width),
                     lhs.c_str(), help.c_str());
    };
    for (const Flag &flag : flags_)
        line("--" + flag.name +
                 (flag.metavar.empty() ? "" : " " + flag.metavar),
             flag.help);
    line("--help", "print this usage and exit");
}

void
FlagTable::fail(const std::string &message) const
{
    std::fprintf(stderr, "%s: %s\n(see %s --help)\n", tool_.c_str(),
                 message.c_str(), tool_.c_str());
    std::exit(2);
}

} // namespace dlsim::stats
