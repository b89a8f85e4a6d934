// Deterministic fault injection for the serving and runtime layers.
//
// A *site* is a named point in the code where a failure can be provoked:
// an allocation failure in a Workspace acquire, an artificial stall in the
// scheduler's steal sweep or at the SerialScope a degraded BatchServer
// epoch opens, an abort at the epoch-apply boundary of the BatchServer, or
// a drop at queue admission.
// A *plan* assigns each site a schedule over its hit sequence — the k-th
// time execution reaches the site is hit index k, and the schedule decides
// whether that hit fires:
//
//   once      fire exactly at hit index `at`
//   periodic  fire at `at`, `at + every`, `at + 2*every`, ...
//   burst     fire at every hit in [at, at + len)
//
// Determinism: firing is a pure function of (plan, hit index). Hit indices
// are assigned by a global per-site counter, so in single-threaded
// execution (BatchServer::step(), serial tests) the whole schedule replays
// exactly; with concurrent threads the *set* of firing hit indices is
// still exact even though which thread draws a given index may vary.
//
// Everything here compiles away unless the build defines
// PARCT_FAULT_INJECT (CMake: -DPARCT_FAULT_INJECT=ON). Injection sites in
// the runtime must use the PARCT_FAULT_POINT / PARCT_FAULT_STALL macros —
// never call fault::detail:: directly — so an OFF build contains no trace
// of the site (enforced by the `fault-macro` rule of
// tools/lint_parallel.py). The plan spec format and the exception type are
// compiled unconditionally (they are inert without armed sites), so tests
// and tools can be built in both modes.
//
// Replay: format_plan/parse_plan round-trip a plan through a one-line
// spec, e.g.
//
//   seed=42;epoch-apply:burst@3x2;queue-admission:periodic@1/5
//
// which is what tests/chaos_test.cpp prints on failure and accepts back
// through PARCT_CHAOS_SPEC (docs/TESTING.md §5).
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>

namespace parct::fault {

enum class Site : unsigned {
  kWorkspaceAcquire = 0,  ///< Workspace::acquire — fires std::bad_alloc
  kSchedulerSteal,        ///< scheduler steal sweep — fires a bounded stall
  kSerialHandoff,         ///< SerialScope open (a degraded BatchServer
                          ///< epoch) — fires a bounded stall
  kEpochApply,            ///< BatchServer epoch-apply boundary — fires an
                          ///< InjectedFault abort (pre-mutation)
  kQueueAdmission,        ///< BatchServer submit_* — fires an admission drop
  kDurabilityFsync,       ///< durability fsync/fdatasync (WAL, checkpoint or
                          ///< directory) — fires an InjectedFault before
                          ///< the data reaches disk
  kDurabilityRename,      ///< checkpoint or WAL segment publish rename —
                          ///< fires an InjectedFault, leaving only the .tmp
  kWalAppend,             ///< WAL record append — fires an InjectedFault
                          ///< after a *partial* write (a torn tail record)
};
inline constexpr std::size_t kNumSites = 8;

/// Stable spec-format name of a site ("workspace-acquire", ...).
const char* site_name(Site s);
/// Inverse of site_name; nullopt for an unknown name.
std::optional<Site> parse_site(std::string_view name);

enum class Mode : unsigned { kOff = 0, kOnce, kPeriodic, kBurst };

struct SiteSchedule {
  Mode mode = Mode::kOff;
  std::uint64_t at = 0;     ///< first firing hit index
  std::uint64_t every = 1;  ///< periodic: stride between firings
  std::uint64_t len = 1;    ///< burst: number of consecutive firing hits

  /// Pure decision function: does hit index `hit` fire under this
  /// schedule?
  bool fires(std::uint64_t hit) const {
    switch (mode) {
      case Mode::kOff:
        return false;
      case Mode::kOnce:
        return hit == at;
      case Mode::kPeriodic:
        return hit >= at && every != 0 && (hit - at) % every == 0;
      case Mode::kBurst:
        return hit >= at && hit - at < len;
    }
    return false;
  }
};

struct Plan {
  /// Provenance only: the seed the schedule was derived from (carried
  /// through the spec so a replay line is self-describing).
  std::uint64_t seed = 0;
  std::array<SiteSchedule, kNumSites> sites{};

  SiteSchedule& operator[](Site s) { return sites[static_cast<unsigned>(s)]; }
  const SiteSchedule& operator[](Site s) const {
    return sites[static_cast<unsigned>(s)];
  }
};

/// One-line spec: `seed=<n>` then `;<site>:<mode>@<at>` entries, with
/// `x<len>` for burst and `/<every>` for periodic. Deterministic; sites
/// with mode off are omitted.
std::string format_plan(const Plan& plan);
/// Parses a format_plan spec. Throws std::runtime_error on a malformed
/// spec or unknown site/mode name.
Plan parse_plan(std::string_view spec);

/// The abort thrown by fire-type sites (kEpochApply). By contract it is
/// raised at the *boundary* of the guarded operation, before any state is
/// mutated — which is what makes the BatchServer's retry of an aborted
/// epoch sound (the batch re-applies against unchanged state).
class InjectedFault : public std::runtime_error {
 public:
  explicit InjectedFault(Site site)
      : std::runtime_error(std::string("parct: injected fault at site ") +
                           site_name(site)),
        site_(site) {}
  Site site() const { return site_; }

 private:
  Site site_;
};

#if PARCT_FAULT_INJECT

/// Installs `plan` and zeroes all hit/fired counters. Sites evaluate the
/// new plan from their next hit on. Thread-safe.
void arm(const Plan& plan);
/// Removes the active plan; sites stop firing (counters keep their
/// values until the next arm()). Thread-safe.
void disarm();
/// True between arm() and disarm().
bool armed();
/// Times `s` was evaluated since the last arm(). Thread-safe.
std::uint64_t hits(Site s);
/// Times `s` fired since the last arm(). Thread-safe.
std::uint64_t fired(Site s);

namespace detail {
/// Advances the site's hit counter and evaluates the armed schedule.
/// Never throws; the *caller* turns a true result into the site's failure
/// mode (throw, drop, stall).
bool should_fire(Site s) noexcept;
/// should_fire + a bounded sleep (kStallMicros) when it fires — the
/// delay-type sites. Never throws.
void stall(Site s) noexcept;
/// Length of one injected stall, long enough to perturb epoch/steal
/// timing, short enough that burst schedules stay inside test timeouts.
inline constexpr unsigned kStallMicros = 200;
}  // namespace detail

#else  // !PARCT_FAULT_INJECT — inert stubs so tests compile in any build

inline void arm(const Plan&) {}
inline void disarm() {}
inline bool armed() { return false; }
inline std::uint64_t hits(Site) { return 0; }
inline std::uint64_t fired(Site) { return 0; }

#endif  // PARCT_FAULT_INJECT

}  // namespace parct::fault

// Injection-site macros. In a PARCT_FAULT_INJECT build, PARCT_FAULT_POINT
// evaluates to true when the site fires this hit; PARCT_FAULT_STALL
// additionally sleeps on a firing hit. In a normal build both compile to
// constants — no counter traffic, no branches, no linkage into the fault
// registry (the lint rule `fault-macro` keeps call sites on these macros).
#if PARCT_FAULT_INJECT
#define PARCT_FAULT_POINT(site) (::parct::fault::detail::should_fire(site))
#define PARCT_FAULT_STALL(site) (::parct::fault::detail::stall(site))
#else
#define PARCT_FAULT_POINT(site) (false)
#define PARCT_FAULT_STALL(site) ((void)0)
#endif
