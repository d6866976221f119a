#include "common/export_util.hh"

#include <array>
#include <charconv>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <sstream>

#include "common/cache.hh"
#include "common/env.hh"
#include "common/thread_pool.hh"

namespace inca {

namespace {

__extension__ typedef unsigned __int128 Uint128;

constexpr std::uint64_t kTen16 = 10000000000000000ULL;
constexpr std::uint64_t kTen17 = 10 * kTen16;

// The integer path's window: floor(log2 |v|) in [-36, 56], so the
// decade estimate k has 16 - k in [0, 27].
constexpr int kExactLowExp2 = -36;
constexpr int kExactHighExp2 = 56;

/** 5^s for s in [0, 27]; 5^27 < 2^63. */
constexpr std::array<std::uint64_t, 28> kPow5 = [] {
    std::array<std::uint64_t, 28> p{};
    p[0] = 1;
    for (std::size_t i = 1; i < p.size(); ++i)
        p[i] = 5 * p[i - 1];
    return p;
}();

/** "00" "01" ... "99": two decimal digits per lookup. */
constexpr std::array<char, 200> kDigitPairs = [] {
    std::array<char, 200> t{};
    for (int i = 0; i < 100; ++i) {
        t[std::size_t(2 * i)] = char('0' + i / 10);
        t[std::size_t(2 * i + 1)] = char('0' + i % 10);
    }
    return t;
}();

/** Write the two digits of @p v < 100 at @p out. */
void
writePair(char *out, std::uint32_t v)
{
    std::memcpy(out, &kDigitPairs[2 * v], 2);
}

/** Write @p d < 10^17 as exactly 17 digits at @p out. */
void
write17Digits(char *out, std::uint64_t d)
{
    std::uint32_t hi = std::uint32_t(d / 100000000); // < 10^9
    std::uint32_t lo = std::uint32_t(d % 100000000);
    for (int i = 15; i > 8; i -= 2, lo /= 100)
        writePair(out + i, lo % 100);
    for (int i = 7; i > 0; i -= 2, hi /= 100)
        writePair(out + i, hi % 100);
    out[0] = char('0' + hi);
}

/**
 * printf "%.17g" of a finite normal @p v with floor(log2 |v|) = @p e2
 * in the window: the 17 digits and their decimal exponent, computed
 * exactly in integers, then %g's layout.
 */
char *
writeExact17(char *p, std::uint64_t bits, int e2)
{
    // |v| = m * 2^(e2 - 52), and 10^k <= |v| < 10^(k + 2) for the
    // estimate k = floor(e2 * log10 2) (exact for |e2| <= 1650).
    const std::uint64_t m = (bits & ((std::uint64_t(1) << 52) - 1)) |
                            (std::uint64_t(1) << 52);
    int k = (e2 * 78913) >> 18;
    const int s = 16 - k;
    // |v| * 10^s = m * 5^s * 2^(e2 - 52 + s) < 10^18, exactly: the
    // integer part, and the fraction against one half.
    const Uint128 n = Uint128(m) * kPow5[std::size_t(s)];
    const int shift = e2 - 52 + s;
    std::uint64_t d = 0;
    bool fraction = false; // fraction > 0
    int vsHalf = -1;       // sign of (fraction - 1/2)
    if (shift >= 0) {
        d = std::uint64_t(n << shift);
    } else {
        const Uint128 rem = n & ((Uint128(1) << -shift) - 1);
        const Uint128 half = Uint128(1) << (-shift - 1);
        d = std::uint64_t(n >> -shift);
        fraction = rem != 0;
        vsHalf = rem < half ? -1 : rem > half;
    }
    // Round half to even to 17 digits. An estimate one decade low
    // leaves 18 digits: drop the last one, rounding on it and the
    // fraction behind it.
    bool up = false;
    if (d < kTen17) {
        up = vsHalf > 0 || (vsHalf == 0 && (d & 1));
    } else {
        const std::uint64_t last = d % 10;
        d /= 10;
        ++k;
        up = last > 5 || (last == 5 && (fraction || (d & 1)));
    }
    d += up;
    // A round up to the next power of ten. No double inside the
    // window does this (none lies within half a unit of the 17th
    // digit below a power of ten); it keeps the path exact by
    // construction rather than by that search.
    if (d == kTen17) {
        d = kTen16;
        ++k;
    }

    char digits[17];
    write17Digits(digits, d);
    int kept = 17; // significant digits once trailing zeros go
    while (digits[kept - 1] == '0')
        --kept;
    if (bits >> 63)
        *p++ = '-';
    if (k < -4 || k >= 17) { // %e layout: d[.ddd]e±XX
        *p++ = digits[0];
        if (kept > 1) {
            *p++ = '.';
            std::memcpy(p, digits + 1, std::size_t(kept - 1));
            p += kept - 1;
        }
        *p++ = 'e';
        *p++ = k < 0 ? '-' : '+';
        writePair(p, std::uint32_t(k < 0 ? -k : k));
        return p + 2;
    }
    if (k < 0) { // 0.000ddd
        *p++ = '0';
        *p++ = '.';
        for (int i = -1; i > k; --i)
            *p++ = '0';
        std::memcpy(p, digits, std::size_t(kept));
        return p + kept;
    }
    std::memcpy(p, digits, std::size_t(k + 1)); // ddd[.ddd]
    p += k + 1;
    if (kept > k + 1) {
        *p++ = '.';
        std::memcpy(p, digits + k + 1, std::size_t(kept - k - 1));
        p += kept - k - 1;
    }
    return p;
}

} // namespace

char *
writeNum17(char *p, double v)
{
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    // Zero and subnormals have e2 = -1023, inf and nan 1024.
    const int e2 = int((bits >> 52) & 0x7ff) - 1023;
    if (e2 >= kExactLowExp2 && e2 <= kExactHighExp2)
        return writeExact17(p, bits, e2);
    return std::to_chars(p, p + kNum17Bytes, v,
                         std::chars_format::general, 17)
        .ptr;
}

void
appendNum17(std::string &out, double v)
{
    char buf[kNum17Bytes];
    out.append(buf, writeNum17(buf, v));
}

std::string
num17(double v)
{
    char buf[kNum17Bytes];
    return std::string(buf, writeNum17(buf, v));
}

std::string
csvField(const std::string &s)
{
    if (s.find_first_of(",\"\r\n") == std::string::npos)
        return s;
    std::string out;
    out.reserve(s.size() + 2);
    out.push_back('"');
    for (char c : s) {
        if (c == '"')
            out.push_back('"');
        out.push_back(c);
    }
    out.push_back('"');
    return out;
}

std::string
jsonEscape(const std::string &s)
{
    static const char hex[] = "0123456789abcdef";
    std::string out;
    out.reserve(s.size() + 2);
    for (const char c : s) {
        const unsigned char u = static_cast<unsigned char>(c);
        if (c == '"' || c == '\\') {
            out.push_back('\\');
            out.push_back(c);
        } else if (c == '\n') {
            out += "\\n";
        } else if (c == '\t') {
            out += "\\t";
        } else if (u < 0x20) {
            out += "\\u00";
            out.push_back(hex[u >> 4]);
            out.push_back(hex[u & 0xf]);
        } else {
            out.push_back(c);
        }
    }
    return out;
}

std::string
envJsonMembers()
{
    std::string out;
    for (const std::string &name : knownEnvVars()) {
        if (!out.empty())
            out += ", ";
        const char *v = std::getenv(name.c_str());
        out += "\"" + name + "\": " +
               (v ? "\"" + jsonEscape(v) + "\"" : std::string("null"));
    }
    return out;
}

std::string
provenanceJson(const std::string &leadMember,
               const std::string &indent)
{
    std::ostringstream os;
    os << indent << leadMember << ",\n";
    os << indent << "\"threads\": "
       << ThreadPool::globalThreadCount() << ",\n";
    os << indent << "\"cache\": "
       << (cacheEnabled() ? "true" : "false") << ",\n";
#ifdef INCA_BUILD_TYPE
    os << indent << "\"build_type\": \"" << jsonEscape(INCA_BUILD_TYPE)
       << "\",\n";
#else
    os << indent << "\"build_type\": \"unknown\",\n";
#endif
    os << indent << "\"env\": {" << envJsonMembers() << "}\n";
    return os.str();
}

} // namespace inca
