(* Library entry point: the recorder API lives in Core (included here so
   call sites read [Telemetry.span]/[Telemetry.count]); the clock, the
   exporters and the shared JSON codec and FNV hash are exposed as
   submodules. *)

include Core
module Clock = Clock
module Summary = Summary
module Sink = Sink
module Merge = Merge
module Runtime = Runtime
module Json = Json
module Fnv = Fnv
