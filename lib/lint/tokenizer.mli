(** A small, comment- and string-aware lexer for OCaml source.

    [Gb_lint] rules must never fire on text that the compiler does not
    execute: doc comments quoting [Random.int], string literals that
    happen to contain ["%g"], char literals like ['"'] that would
    derail a naive scanner. This lexer produces exactly enough
    structure for the rule engine: a stream of code tokens with
    positions, and the comments (with their line spans) on the side so
    the engine can read suppression pragmas out of them.

    It understands the awkward corners of OCaml's lexical syntax that
    matter for not mis-firing:
    - nested [(* ... (* ... *) ... *)] comments;
    - string literals {i inside} comments (a ["*)"] in a commented
      string does not close the comment, per the real lexer);
    - [{|...|}] and [{id|...|id}] quoted strings, which have no
      escapes;
    - escapes in ordinary strings (escaped quotes, [\\], [\n],
      [\xHH], ...);
    - char literals (['a'], ['\n'], ['\'']) versus type variables
      (['a] in [list 'a] position) and identifier primes ([x']).

    It does {i not} attempt full fidelity on numbers or multi-char
    operators: rules only inspect identifiers, module paths, and
    string contents, so everything else is folded into single-char
    {!Sym} tokens. *)

type token =
  | Ident of string  (** lowercase/underscore-initial identifier or keyword *)
  | Uident of string  (** capitalised identifier (module/constructor) *)
  | Str of string  (** string literal, content without delimiters *)
  | Chr of string  (** char literal, content without quotes *)
  | Number of string  (** numeric literal, verbatim *)
  | Sym of string  (** any other single character *)

type positioned = { tok : token; line : int; col : int }
(** [line] is 1-based, [col] 0-based (both of the token's first char). *)

type comment = { c_start : int; c_end : int; c_text : string }
(** One [(* ... *)] comment: 1-based first and last line, and the text
    between the outermost delimiters. *)

type t = { tokens : positioned array; comments : comment list }
(** Comments are in source order; [tokens] excludes them. *)

val tokenize : string -> t
(** Lex a whole compilation unit. Never raises: an unterminated
    comment or string simply ends at end of input (the rules then see
    whatever was lexed up to that point — the compiler will reject the
    file anyway). *)

val binding_head : t -> int -> int
(** [binding_head lexed i], for the index [i] of a [let] or [and]
    keyword, is the index of the first token of the bound name or
    pattern. It steps over [rec] and over attributes on either side of
    it: [let\[@inline\] f], [let rec\[@inline\] f] and
    [let\[@inline\] rec f] all give the index of [f]. *)
