(** FNV-1a 64: the one hash behind {!Engine.Key}, the checkpoint
    record digest and waveform fingerprint, and the fault-injection
    draws. Changing any of these functions changes pinned keys and
    fault schedules. *)

val basis : int64

val mix_byte : int64 -> int -> int64
(** One FNV-1a step: xor the int in, multiply by the FNV prime. Callers
    normally pass a byte; the fault-injection draw mixes whole ints. *)

val mix_bytes : int64 -> string -> int64
(** Every byte of the string, with no terminator. *)

val mix_string : int64 -> string -> int64
(** {!mix_bytes}, then a [0xFF] terminator so [("ab","c")] and
    [("a","bc")] hash differently. *)

val mix_float : int64 -> float -> int64
(** Mixes the full 8-byte IEEE-754 image, little-endian byte order. *)

val mix_int : int64 -> int -> int64
(** {!mix_float} of the int converted to a float. *)

val hex : int64 -> string
(** [%016Lx] rendering of the accumulated hash. *)
