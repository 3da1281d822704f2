#ifndef UJOIN_OBS_OBS_MACROS_H_
#define UJOIN_OBS_OBS_MACROS_H_

#include "obs/flight_recorder.h"
#include "obs/metrics.h"

// UJOIN_OBS macro layer.
//
// Instrumentation sites go through these macros instead of calling the
// Recorder directly, so observability has two independent off switches:
//
//  * Run time: every hook takes an `obs::Recorder*` that is null unless the
//    caller attached one (JoinOptions::metrics, QueryWorkspace::obs).  The
//    enabled macros reduce to a single pointer test — the only cost paid by
//    uninstrumented runs.
//  * Compile time: configuring with -DUJOIN_OBS=OFF defines
//    UJOIN_OBS_DISABLED on every ujoin_obs dependent, and the macros expand
//    to nothing (UJOIN_OBS_ENABLED becomes the constant false, so guarded
//    blocks fold away as dead code).
//
// Recording itself performs no heap allocation (Recorder storage is inline),
// so these macros are safe inside the steady-state zero-allocation probe
// path.

#if defined(UJOIN_OBS_DISABLED)

// sizeof keeps the arguments un-evaluated (no codegen, no side effects)
// while still "using" them, so values computed only for recording do not
// trip -Wunused under -DUJOIN_OBS=OFF.
#define UJOIN_OBS_ENABLED(recorder) ((void)sizeof(recorder), false)
#define UJOIN_OBS_HIST(recorder, id, value)                            \
  do {                                                                 \
    (void)sizeof(recorder), (void)sizeof(id), (void)sizeof((value));   \
  } while (0)
#define UJOIN_OBS_COUNTER(recorder, id, delta)                         \
  do {                                                                 \
    (void)sizeof(recorder), (void)sizeof(id), (void)sizeof((delta));   \
  } while (0)
#define UJOIN_OBS_GAUGE(recorder, id, value)                           \
  do {                                                                 \
    (void)sizeof(recorder), (void)sizeof(id), (void)sizeof((value));   \
  } while (0)
#define UJOIN_OBS_FUNNEL(recorder, stage, entered, survived)           \
  do {                                                                 \
    (void)sizeof(recorder), (void)sizeof(stage),                       \
        (void)sizeof((entered)), (void)sizeof((survived));             \
  } while (0)
#define UJOIN_OBS_FLIGHT_EVENT(kind, a, b)                             \
  do {                                                                 \
    (void)sizeof(kind), (void)sizeof((a)), (void)sizeof((b));          \
  } while (0)

#else  // !defined(UJOIN_OBS_DISABLED)

/// True when `recorder` (an obs::Recorder*) is attached; use to guard
/// instrumentation-only work such as reading a timer.
#define UJOIN_OBS_ENABLED(recorder) ((recorder) != nullptr)

/// Records `value` into histogram `id` when a recorder is attached.
#define UJOIN_OBS_HIST(recorder, id, value)                         \
  do {                                                              \
    if ((recorder) != nullptr) (recorder)->RecordHist((id), (value)); \
  } while (0)

/// Adds `delta` to counter `id` when a recorder is attached.
#define UJOIN_OBS_COUNTER(recorder, id, delta)                        \
  do {                                                                \
    if ((recorder) != nullptr) (recorder)->AddCounter((id), (delta)); \
  } while (0)

/// Raises gauge `id` to at least `value` when a recorder is attached.
#define UJOIN_OBS_GAUGE(recorder, id, value)                        \
  do {                                                              \
    if ((recorder) != nullptr) (recorder)->SetGauge((id), (value)); \
  } while (0)

/// Adds one probe's candidate flow through funnel stage `stage` when a
/// recorder is attached: `entered` candidates reached it, `survived` passed.
#define UJOIN_OBS_FUNNEL(recorder, stage, entered, survived) \
  do {                                                       \
    if ((recorder) != nullptr) {                             \
      (recorder)->AddFunnel((stage), (entered), (survived)); \
    }                                                        \
  } while (0)

/// Records one lifecycle event (obs::FlightEvent `kind`, two int64 payload
/// words) on the calling thread's flight-recorder ring.  Always-on
/// black-box recording: unlike the metric macros there is no per-call-site
/// recorder pointer — the global ring is the point — so the only runtime
/// cost with recording disabled is one relaxed load.  Recording is
/// allocation-, lock- and syscall-free (see flight_recorder.h), so this is
/// safe on the steady-state probe path.
#define UJOIN_OBS_FLIGHT_EVENT(kind, a, b)                            \
  do {                                                                \
    ::ujoin::obs::GlobalFlightRecorder()->RecordEvent((kind), (a), (b)); \
  } while (0)

#endif  // defined(UJOIN_OBS_DISABLED)

#endif  // UJOIN_OBS_OBS_MACROS_H_
