(* Seeded input generation for the three workloads. Everything the
   program under test receives is produced here from the workload seed,
   so the same seed gives the same inputs and the program never sees the
   seed itself. *)

let rng seed = Random.State.make [| 0x5eed; seed |]

let shuffle st a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done

(* ---- mixer: the paper's circuit is fixed; the seed only places the
   80x60 refinement solve inside each cycle of 40x30 solves. ---- *)

type grid = Coarse | Fine

let coarse_per_cycle = 6

let mixer_schedule ~seed ~cycles =
  let st = rng seed in
  Array.concat
    (List.init cycles (fun _ ->
         let fine_at = Random.State.int st (coarse_per_cycle + 1) in
         Array.init (coarse_per_cycle + 1) (fun k ->
             if k = fine_at then Fine else Coarse)))

(* ---- sweep: a stratified disparity x RF-amplitude grid. Every stratum
   appears equally often, so the total work of a sweep barely depends on
   the seed; the seed jitters each point inside its stratum and fixes
   the job order. ---- *)

type sweep_point = { disparity : float; rf_amplitude : float }

let sweep_disparities = [| 30.; 100.; 300.; 1000. |]
let sweep_amplitudes = [| 0.02; 0.05; 0.08 |]

let sweep_points ~seed ~reps =
  let st = rng seed in
  let jitter x = x *. (1.0 +. Random.State.float st 0.2 -. 0.1) in
  let points =
    Array.concat
      (List.init reps (fun _ ->
           Array.concat
             (Array.to_list
                (Array.map
                   (fun d ->
                     Array.map
                       (fun a -> { disparity = jitter d; rf_amplitude = jitter a })
                       sweep_amplitudes)
                   sweep_disparities))))
  in
  shuffle st points;
  points

(* ---- serve: a closed-loop rfss.jobs/1 request stream. Dispositions
   come in blocks of ten with fixed counts (4 repeats, 4 warm-startable
   new tones, 2 "warm":false new tones) in a seeded order, so every seed
   has the same mix. New tones are drawn within +-5% of the fixture's
   difference tone; a repeat names a key the service's LRU still holds,
   which the generator knows by replaying the LRU policy itself. ---- *)

type disposition = Hit | Warm | Cold

let disposition_name = function Hit -> "hit" | Warm -> "warm" | Cold -> "cold"
let block = [| Hit; Hit; Hit; Hit; Warm; Warm; Warm; Warm; Cold; Cold |]

type request = { fd : float; warm : bool; expect : disposition }

type stream = {
  st : Random.State.t;
  base_fd : float;
  capacity : int;
  mutable lru : float list;  (** cached tones, most recently used first *)
  used : (float, unit) Hashtbl.t;
  mutable pending : disposition list;
}

let serve_stream ~seed ~base_fd ~capacity =
  {
    st = rng seed;
    base_fd;
    capacity;
    lru = [];
    used = Hashtbl.create 256;
    pending = [];
  }

let rec fresh_fd s =
  let fd = s.base_fd *. (1.0 +. Random.State.float s.st 0.1 -. 0.05) in
  if Hashtbl.mem s.used fd then fresh_fd s
  else begin
    Hashtbl.replace s.used fd ();
    fd
  end

let touch s fd =
  let rest = List.filter (fun x -> x <> fd) s.lru in
  s.lru <- List.filteri (fun i _ -> i < s.capacity) (fd :: rest)

(* A miss the caller sends outside the drawn stream (warm-up): the
   simulated LRU must see it too. *)
let miss s ~warm =
  let fd = fresh_fd s in
  touch s fd;
  { fd; warm; expect = (if warm then Warm else Cold) }

let next s =
  if s.pending = [] then begin
    let b = Array.copy block in
    shuffle s.st b;
    s.pending <- Array.to_list b
  end;
  let d = List.hd s.pending in
  s.pending <- List.tl s.pending;
  match (d, s.lru) with
  | Hit, (_ :: _ as cached) ->
      let fd = List.nth cached (Random.State.int s.st (List.length cached)) in
      touch s fd;
      { fd; warm = true; expect = Hit }
  | Hit, [] -> invalid_arg "Gen.next: a repeat needs a cached tone (send a warm-up miss first)"
  | (Warm | Cold), _ -> miss s ~warm:(d = Warm)

let body ~circuit ~n1 ~n2 r =
  Printf.sprintf
    "{\"v\":\"rfss.jobs/1\",\"circuit\":%S,\"fd\":%.17g,\"options\":{\"n1\":%d,\"n2\":%d},\"warm\":%b}"
    circuit r.fd n1 n2 r.warm
