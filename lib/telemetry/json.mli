(** The one JSON codec: value tree, strict-escape parser, emitter and
    the printf helpers every hand-formatted wire format shares.

    The repo carries no external JSON dependency. Every document that
    leaves the process — checkpoint lines, rfss.jobs/1 responses,
    Chrome traces, resilience reports, BENCH, [/healthz] — is either a
    {!t} printed by {!to_string} or a printf template whose strings go
    through {!quote} and whose floats go through {!number}.

    Three rules hold everywhere:
    - {b Escape.} Double quote, backslash, newline, tab and carriage
      return get their short escapes; every other byte below 0x20
      becomes a six-character [u00XX] escape; all other bytes pass
      through. {!parse} decodes every escape JSON defines ([uXXXX] to
      UTF-8, surrogate pairs included), so [parse (quote s) = Str s]
      for every byte string [s].
    - {b Non-finite floats} are written as the quoted strings ["nan"],
      ["inf"] and ["-inf"]; {!to_float} reads them back. {!num} stays
      strict and rejects them.
    - {b Digits} are part of each wire format: {!to_string} prints
      integers below 1e15 as [%.0f] and everything else as [%.17g]
      (round-trip exact); {!number} prints [%.{digits}e]. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Parse_error of string

val parse : string -> t
(** @raise Parse_error on malformed input, an unknown or short escape,
    an unpaired surrogate, or trailing garbage. *)

val to_string : t -> string
(** Compact emission. For trees whose numbers are finite,
    [parse (to_string j) = j]. *)

val quote : string -> string
(** The quoted, escaped form of a string (including the quotes). *)

val number : digits:int -> float -> string
(** [%.{digits}e] of a finite float; the quoted non-finite form
    otherwise. *)

val to_float : t -> float option
(** [Num v], or one of the quoted non-finite strings. *)

val member : string -> t -> t option
(** First binding of the key in an object; [None] otherwise. *)

val path : string list -> t -> t option
(** [path ["a"; "b"] j] is [member "b"] of [member "a"] of [j]. *)

val num : t -> float option

val str : t -> string option

val bool : t -> bool option
