type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Parse_error of string

(* ---------- the escape table ---------- *)

let add_quoted buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let quote s =
  let buf = Buffer.create (String.length s + 2) in
  add_quoted buf s;
  Buffer.contents buf

(* ---------- the non-finite rule ---------- *)

let non_finite f =
  if Float.is_nan f then "\"nan\"" else if f > 0.0 then "\"inf\"" else "\"-inf\""

let number ~digits f =
  if Float.is_finite f then Printf.sprintf "%.*e" digits f else non_finite f

let to_float = function
  | Num v -> Some v
  | Str "nan" -> Some Float.nan
  | Str "inf" -> Some Float.infinity
  | Str "-inf" -> Some Float.neg_infinity
  | _ -> None

(* %.0f of an integer below 1e15 prints the same digits as %.17g. *)
let add_float buf f =
  if Float.is_integer f && Float.abs f < 1e15 then
    Buffer.add_string buf (Printf.sprintf "%.0f" f)
  else if Float.is_finite f then
    Buffer.add_string buf (Printf.sprintf "%.17g" f)
  else Buffer.add_string buf (non_finite f)

let to_string j =
  let buf = Buffer.create 256 in
  let rec emit = function
    | Null -> Buffer.add_string buf "null"
    | Bool true -> Buffer.add_string buf "true"
    | Bool false -> Buffer.add_string buf "false"
    | Num f -> add_float buf f
    | Str s -> add_quoted buf s
    | Arr l ->
        Buffer.add_char buf '[';
        List.iteri
          (fun i v ->
            if i > 0 then Buffer.add_char buf ',';
            emit v)
          l;
        Buffer.add_char buf ']'
    | Obj fields ->
        Buffer.add_char buf '{';
        List.iteri
          (fun i (k, v) ->
            if i > 0 then Buffer.add_char buf ',';
            add_quoted buf k;
            Buffer.add_char buf ':';
            emit v)
          fields;
        Buffer.add_char buf '}'
  in
  emit j;
  Buffer.contents buf

(* ---------- parser ---------- *)

let parse text =
  let pos = ref 0 in
  let len = String.length text in
  let peek () = if !pos < len then Some text.[!pos] else None in
  let advance () = incr pos in
  let fail msg =
    raise (Parse_error (Printf.sprintf "%s at offset %d" msg !pos))
  in
  let rec skip_ws () =
    match peek () with
    | Some (' ' | '\t' | '\n' | '\r') ->
        advance ();
        skip_ws ()
    | _ -> ()
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected '%c'" c)
  in
  let literal word value =
    if
      !pos + String.length word <= len
      && String.sub text !pos (String.length word) = word
    then begin
      pos := !pos + String.length word;
      value
    end
    else fail ("expected " ^ word)
  in
  (* The four hex digits after "\u" (the cursor is on the first). *)
  let hex4 () =
    if !pos + 4 > len then fail "short \\u escape";
    let h = String.sub text !pos 4 in
    let is_hex = function
      | '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> true
      | _ -> false
    in
    if not (String.for_all is_hex h) then fail "bad \\u escape";
    pos := !pos + 4;
    int_of_string ("0x" ^ h)
  in
  (* A \uXXXX escape, or a surrogate pair of two, as a code point. *)
  let code_point () =
    let hi = hex4 () in
    if hi < 0xD800 || hi > 0xDFFF then hi
    else if hi <= 0xDBFF && !pos + 2 <= len && String.sub text !pos 2 = "\\u"
    then begin
      pos := !pos + 2;
      let lo = hex4 () in
      if lo < 0xDC00 || lo > 0xDFFF then fail "unpaired surrogate";
      0x10000 + ((hi - 0xD800) lsl 10) + (lo - 0xDC00)
    end
    else fail "unpaired surrogate"
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      match peek () with
      | None -> fail "unterminated string"
      | Some '"' -> advance ()
      | Some '\\' -> (
          advance ();
          match peek () with
          | None -> fail "unterminated escape"
          | Some 'u' ->
              advance ();
              Buffer.add_utf_8_uchar buf (Uchar.of_int (code_point ()));
              go ()
          | Some c ->
              Buffer.add_char buf
                (match c with
                | '"' | '\\' | '/' -> c
                | 'n' -> '\n'
                | 't' -> '\t'
                | 'r' -> '\r'
                | 'b' -> '\b'
                | 'f' -> '\012'
                | c -> fail (Printf.sprintf "bad escape '\\%c'" c));
              advance ();
              go ())
      | Some c ->
          Buffer.add_char buf c;
          advance ();
          go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    let is_num_char = function
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while
      match peek () with Some c when is_num_char c -> true | _ -> false
    do
      advance ()
    done;
    match float_of_string_opt (String.sub text start (!pos - start)) with
    | Some f -> Num f
    | None -> fail "bad number"
  in
  (* The items of an object or array, the cursor on its opening
     bracket: [item] parses one, separated by ',' up to [close]. *)
  let items close item =
    advance ();
    skip_ws ();
    if peek () = Some close then (advance (); [])
    else
      let rec go acc =
        let acc = item () :: acc in
        skip_ws ();
        match peek () with
        | Some ',' -> advance (); go acc
        | Some c when c = close -> advance (); List.rev acc
        | _ -> fail (Printf.sprintf "expected ',' or '%c'" close)
      in
      go []
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | Some '{' -> Obj (items '}' member)
    | Some '[' -> Arr (items ']' parse_value)
    | Some '"' -> Str (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some _ -> parse_number ()
    | None -> fail "unexpected end of input"
  and member () =
    skip_ws ();
    let key = parse_string () in
    skip_ws ();
    expect ':';
    (key, parse_value ())
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> len then fail "trailing garbage";
  v

(* ---------- accessors ---------- *)

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let path keys j =
  List.fold_left
    (fun acc key -> match acc with Some v -> member key v | None -> None)
    (Some j) keys

let num = function Num f -> Some f | _ -> None

let str = function Str s -> Some s | _ -> None

let bool = function Bool b -> Some b | _ -> None
