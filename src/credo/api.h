// Umbrella header for credo's public API surface (DESIGN.md §5e).
//
// Embedders and the CLI include this one header and get the supported
// surface: engines and options (bp/), the serving layer (serve/), the
// locality pass (graph/reorder.h), the observability layer (obs/) and the
// shared status vocabulary (util/error.h). Everything else under src/ —
// notably bp/engines_internal.h, bp/runtime/*, gpusim/* and cachesim/* —
// is an internal layer: it may change or disappear between releases
// without notice, so include it only from inside the repo.
#pragma once

// Status vocabulary + exceptions (credo::util::Status, StatusOr, ...).
#include "util/error.h"

// Factor graphs, MTX-belief I/O and the locality/reordering pass.
#include "graph/factor_graph.h"
#include "graph/metadata.h"
#include "graph/reorder.h"
#include "io/mtx_belief.h"

// Dynamic graphs (DESIGN.md §5j): the fluent GraphDelta batch (evidence +
// topology ops), applied through graph::with_delta (evidence on any graph),
// graph::DynamicGraph::apply (topology, each batch a new immutable
// version) or serve Request::with_delta. Validation is Status-returning:
// bad batches (edges to removed nodes, duplicate inserts, set_prior on an
// observed node) are rejected, never asserted on.
#include "graph/delta.h"
#include "graph/dynamic.h"

// Engines: BpOptions/BpResult, EngineKind, make_default_engine.
#include "bp/engine.h"
#include "bp/options.h"

// Serving: Server, Request/Response, GraphCache, stress replay.
#include "serve/graph_cache.h"
#include "serve/request.h"
#include "serve/server.h"
#include "serve/stress.h"

// Observability: MetricsRegistry, Counter/Gauge/Histogram, Span/SpanLog.
#include "obs/metrics.h"
#include "obs/span.h"

// The §3.7 engine dispatcher (train/load/choose).
#include "credo/dispatcher.h"
