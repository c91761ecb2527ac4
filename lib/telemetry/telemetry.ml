(* Library entry point: the recorder API lives in Core (included here so
   call sites read [Telemetry.span]/[Telemetry.count]); the clock, the
   exporters, the metric registry and the shared JSON codec and FNV hash
   are exposed as submodules. *)

include Core
module Clock = Clock
module Summary = Summary
module Sink = Sink
module Merge = Merge
module Runtime = Runtime
module Registry = Registry
module Json = Json
module Fnv = Fnv
