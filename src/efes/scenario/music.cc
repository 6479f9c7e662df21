#include "efes/scenario/music.h"

#include <map>
#include <set>

#include "efes/common/random.h"
#include "efes/scenario/schema_util.h"

namespace efes {

namespace {

struct TrackEntity {
  std::string title;
  int length_ms = 0;
  int position = 0;
};

struct DiscEntity {
  std::string title;
  std::vector<std::string> artists;  // one or two
  int year = 2000;
  int month = 1;
  int day = 1;
  int country_index = 0;
  int genre_index = 0;
  int label_index = 0;
  std::vector<TrackEntity> tracks;
};

struct MusicPool {
  std::vector<DiscEntity> discs;
  std::vector<std::string> artist_pool;
  std::vector<std::string> countries;
  std::vector<std::string> genres;
  std::vector<std::string> labels;
  std::vector<std::string> formats;
};

std::string Cap(std::string word) {
  word[0] = static_cast<char>(word[0] - 'a' + 'A');
  return word;
}

std::string TitleWords(Random& rng, size_t min_words, size_t max_words) {
  size_t words =
      min_words + rng.UniformUint64(max_words - min_words + 1);
  std::string title;
  for (size_t i = 0; i < words; ++i) {
    if (i > 0) title += ' ';
    title += Cap(rng.Word(2, 9));
  }
  return title;
}

MusicPool MakePool(const MusicOptions& options) {
  // Vocabulary pools (artists, labels) are domain facts shared by all
  // database instances; only the disc selection varies with the seed.
  Random vocab_rng(0x0D15'C0C0ULL + options.disc_count);
  Random rng(options.seed);
  MusicPool pool;

  pool.countries = {"Germany", "France", "Italy",  "Japan",
                    "Canada",  "Brazil", "Norway", "Spain",
                    "Poland",  "Kenya",  "Chile",  "India"};
  pool.genres = {"Rock", "Pop",  "Jazz",      "Folk",
                 "Soul", "Punk", "Classical", "Electronic"};
  pool.formats = {"CD", "Vinyl", "Cassette", "Digital"};
  for (size_t l = 0; l < 40; ++l) {
    pool.labels.push_back(TitleWords(vocab_rng, 1, 2) + " Records");
  }

  size_t artist_count = std::max<size_t>(options.disc_count / 3, 8);
  std::set<std::string> seen;
  while (pool.artist_pool.size() < artist_count) {
    std::string name =
        Cap(vocab_rng.Word(3, 7)) + " " + Cap(vocab_rng.Word(4, 9));
    if (seen.insert(name).second) pool.artist_pool.push_back(name);
  }

  for (size_t d = 0; d < options.disc_count; ++d) {
    DiscEntity disc;
    disc.title = TitleWords(rng, 1, 4);
    disc.artists.push_back(
        pool.artist_pool[d % pool.artist_pool.size()]);
    if (rng.Bernoulli(options.multi_artist_rate)) {
      std::string second =
          pool.artist_pool[rng.UniformUint64(pool.artist_pool.size())];
      if (second != disc.artists[0]) disc.artists.push_back(second);
    }
    disc.year = static_cast<int>(rng.UniformInt(1965, 2014));
    disc.month = static_cast<int>(rng.UniformInt(1, 12));
    disc.day = static_cast<int>(rng.UniformInt(1, 28));
    disc.country_index =
        static_cast<int>(rng.UniformUint64(pool.countries.size()));
    disc.genre_index = static_cast<int>(rng.Zipf(pool.genres.size(), 0.9));
    disc.label_index =
        static_cast<int>(rng.UniformUint64(pool.labels.size()));
    size_t track_count =
        options.min_tracks +
        rng.UniformUint64(options.max_tracks - options.min_tracks + 1);
    for (size_t t = 0; t < track_count; ++t) {
      TrackEntity track;
      track.title = TitleWords(rng, 1, 5);
      track.length_ms = static_cast<int>(rng.UniformInt(90'000, 480'000));
      track.position = static_cast<int>(t + 1);
      disc.tracks.push_back(std::move(track));
    }
    pool.discs.push_back(std::move(disc));
  }
  return pool;
}

std::string IsoDate(const DiscEntity& disc) {
  std::string date = std::to_string(disc.year);
  for (int n : {disc.month, disc.day}) {
    date += n < 10 ? "-0" : "-";
    date += std::to_string(n);
  }
  return date;
}

std::string DurationText(int length_ms) {
  int total_seconds = length_ms / 1000;
  int minutes = total_seconds / 60;
  int seconds = total_seconds % 60;
  return std::to_string(minutes) + ":" + (seconds < 10 ? "0" : "") +
         std::to_string(seconds);
}

std::string CombinedCredit(const DiscEntity& disc) {
  std::string credit = disc.artists[0];
  for (size_t i = 1; i < disc.artists.size(); ++i) {
    credit += " & " + disc.artists[i];
  }
  return credit;
}

}  // namespace

/// MusicBrainz-style auxiliary vocabularies for the extended schema.
const char* const kExtendedLookups[] = {
    "instrument", "area",     "language", "script",     "work",
    "place",      "series",   "gender",   "packaging",  "status",
    "alias_type", "tag",      "url_type", "link_phase", "editor_note",
    "cover_type", "medium_kind", "release_event"};

std::string_view MusicSchemaIdToString(MusicSchemaId id) {
  switch (id) {
    case MusicSchemaId::kFreedb:
      return "f";
    case MusicSchemaId::kMusicbrainz:
      return "m";
    case MusicSchemaId::kDiscogs:
      return "d";
  }
  return "?";
}

Schema MakeMusicSchema(MusicSchemaId id, const MusicOptions& options) {
  (void)options;
  switch (id) {
    case MusicSchemaId::kFreedb: {
      // Flat dump: two relations.
      Schema schema("music_f");
      scenario_internal::MustAddRelation(schema, RelationDef(
          "discs", {{"disc_id", DataType::kInteger},
                    {"artist", DataType::kText},
                    {"dtitle", DataType::kText},
                    {"year", DataType::kInteger},
                    {"genre", DataType::kText}}));
      scenario_internal::MustAddRelation(schema, RelationDef(
          "disc_tracks", {{"disc_id", DataType::kInteger},
                          {"seq", DataType::kInteger},
                          {"title", DataType::kText},
                          {"length_sec", DataType::kInteger}}));
      schema.AddConstraint(Constraint::PrimaryKey("discs", {"disc_id"}));
      schema.AddConstraint(Constraint::NotNull("discs", "artist"));
      schema.AddConstraint(Constraint::NotNull("discs", "dtitle"));
      schema.AddConstraint(
          Constraint::PrimaryKey("disc_tracks", {"disc_id", "seq"}));
      schema.AddConstraint(Constraint::ForeignKey(
          "disc_tracks", {"disc_id"}, "discs", {"disc_id"}));
      schema.AddConstraint(Constraint::NotNull("disc_tracks", "title"));
      return schema;
    }
    case MusicSchemaId::kMusicbrainz: {
      // Heavily normalized: 12 relations.
      Schema schema("music_m");
      scenario_internal::MustAddRelation(schema, RelationDef(
          "artist", {{"id", DataType::kInteger},
                     {"name", DataType::kText},
                     {"sort_name", DataType::kText}}));
      scenario_internal::MustAddRelation(schema, RelationDef(
          "artist_credit", {{"id", DataType::kInteger},
                            {"name", DataType::kText}}));
      scenario_internal::MustAddRelation(schema, RelationDef(
          "artist_credit_name", {{"artist_credit", DataType::kInteger},
                                 {"position", DataType::kInteger},
                                 {"artist", DataType::kInteger}}));
      scenario_internal::MustAddRelation(schema, RelationDef(
          "release_group", {{"id", DataType::kInteger},
                            {"title", DataType::kText},
                            {"artist_credit", DataType::kInteger},
                            {"genre", DataType::kInteger}}));
      scenario_internal::MustAddRelation(schema, RelationDef(
          "release", {{"id", DataType::kInteger},
                      {"release_group", DataType::kInteger},
                      {"title", DataType::kText},
                      {"date", DataType::kText},
                      {"country", DataType::kInteger}}));
      scenario_internal::MustAddRelation(schema, RelationDef(
          "country", {{"id", DataType::kInteger},
                      {"name", DataType::kText}}));
      scenario_internal::MustAddRelation(schema, RelationDef(
          "medium", {{"id", DataType::kInteger},
                     {"release", DataType::kInteger},
                     {"position", DataType::kInteger},
                     {"format", DataType::kInteger}}));
      scenario_internal::MustAddRelation(schema, RelationDef(
          "format", {{"id", DataType::kInteger},
                     {"name", DataType::kText}}));
      scenario_internal::MustAddRelation(schema, RelationDef(
          "track", {{"id", DataType::kInteger},
                    {"medium", DataType::kInteger},
                    {"position", DataType::kInteger},
                    {"title", DataType::kText},
                    {"length", DataType::kInteger}}));
      scenario_internal::MustAddRelation(schema, RelationDef(
          "label", {{"id", DataType::kInteger},
                    {"name", DataType::kText}}));
      scenario_internal::MustAddRelation(schema, RelationDef(
          "release_label", {{"release", DataType::kInteger},
                            {"label", DataType::kInteger}}));
      scenario_internal::MustAddRelation(schema, RelationDef(
          "genre", {{"id", DataType::kInteger},
                    {"name", DataType::kText}}));
      schema.AddConstraint(Constraint::PrimaryKey("artist", {"id"}));
      schema.AddConstraint(Constraint::NotNull("artist", "name"));
      schema.AddConstraint(Constraint::PrimaryKey("artist_credit", {"id"}));
      schema.AddConstraint(Constraint::NotNull("artist_credit", "name"));
      schema.AddConstraint(Constraint::PrimaryKey(
          "artist_credit_name", {"artist_credit", "position"}));
      schema.AddConstraint(Constraint::ForeignKey(
          "artist_credit_name", {"artist_credit"}, "artist_credit", {"id"}));
      schema.AddConstraint(Constraint::ForeignKey(
          "artist_credit_name", {"artist"}, "artist", {"id"}));
      schema.AddConstraint(
          Constraint::NotNull("artist_credit_name", "artist"));
      schema.AddConstraint(Constraint::PrimaryKey("release_group", {"id"}));
      schema.AddConstraint(Constraint::NotNull("release_group", "title"));
      schema.AddConstraint(Constraint::ForeignKey(
          "release_group", {"artist_credit"}, "artist_credit", {"id"}));
      schema.AddConstraint(
          Constraint::NotNull("release_group", "artist_credit"));
      schema.AddConstraint(Constraint::ForeignKey("release_group", {"genre"},
                                                  "genre", {"id"}));
      schema.AddConstraint(Constraint::PrimaryKey("release", {"id"}));
      schema.AddConstraint(Constraint::ForeignKey(
          "release", {"release_group"}, "release_group", {"id"}));
      schema.AddConstraint(Constraint::NotNull("release", "release_group"));
      schema.AddConstraint(Constraint::NotNull("release", "title"));
      schema.AddConstraint(
          Constraint::ForeignKey("release", {"country"}, "country", {"id"}));
      schema.AddConstraint(Constraint::PrimaryKey("country", {"id"}));
      schema.AddConstraint(Constraint::NotNull("country", "name"));
      schema.AddConstraint(Constraint::Unique("country", {"name"}));
      schema.AddConstraint(Constraint::PrimaryKey("medium", {"id"}));
      schema.AddConstraint(
          Constraint::ForeignKey("medium", {"release"}, "release", {"id"}));
      schema.AddConstraint(Constraint::NotNull("medium", "release"));
      schema.AddConstraint(
          Constraint::ForeignKey("medium", {"format"}, "format", {"id"}));
      schema.AddConstraint(Constraint::PrimaryKey("format", {"id"}));
      schema.AddConstraint(Constraint::NotNull("format", "name"));
      schema.AddConstraint(Constraint::Unique("format", {"name"}));
      schema.AddConstraint(Constraint::PrimaryKey("track", {"id"}));
      schema.AddConstraint(
          Constraint::ForeignKey("track", {"medium"}, "medium", {"id"}));
      schema.AddConstraint(Constraint::NotNull("track", "medium"));
      schema.AddConstraint(Constraint::NotNull("track", "position"));
      schema.AddConstraint(Constraint::NotNull("track", "title"));
      schema.AddConstraint(Constraint::PrimaryKey("label", {"id"}));
      schema.AddConstraint(Constraint::NotNull("label", "name"));
      schema.AddConstraint(Constraint::Unique("label", {"name"}));
      schema.AddConstraint(Constraint::PrimaryKey(
          "release_label", {"release", "label"}));
      schema.AddConstraint(Constraint::ForeignKey(
          "release_label", {"release"}, "release", {"id"}));
      schema.AddConstraint(
          Constraint::ForeignKey("release_label", {"label"}, "label", {"id"}));
      schema.AddConstraint(Constraint::PrimaryKey("genre", {"id"}));
      schema.AddConstraint(Constraint::NotNull("genre", "name"));
      schema.AddConstraint(Constraint::Unique("genre", {"name"}));
      if (options.extended_lookups) {
        for (const char* lookup : kExtendedLookups) {
          scenario_internal::MustAddRelation(schema, RelationDef(
              lookup, {{"id", DataType::kInteger},
                       {"name", DataType::kText},
                       {"comment", DataType::kText}}));
          schema.AddConstraint(Constraint::PrimaryKey(lookup, {"id"}));
          schema.AddConstraint(Constraint::NotNull(lookup, "name"));
        }
      }
      return schema;
    }
    case MusicSchemaId::kDiscogs: {
      Schema schema("music_d");
      scenario_internal::MustAddRelation(schema, RelationDef(
          "releases", {{"release_id", DataType::kInteger},
                       {"title", DataType::kText},
                       {"artist", DataType::kText},
                       {"released", DataType::kInteger},
                       {"country", DataType::kText},
                       {"genre", DataType::kText}}));
      scenario_internal::MustAddRelation(schema, RelationDef(
          "release_tracks", {{"release_id", DataType::kInteger},
                             {"position", DataType::kInteger},
                             {"title", DataType::kText},
                             {"duration", DataType::kText}}));
      scenario_internal::MustAddRelation(schema, RelationDef(
          "labels", {{"label_id", DataType::kInteger},
                     {"name", DataType::kText}}));
      scenario_internal::MustAddRelation(schema, RelationDef(
          "release_labels", {{"release_id", DataType::kInteger},
                             {"label_id", DataType::kInteger}}));
      schema.AddConstraint(Constraint::PrimaryKey("releases", {"release_id"}));
      schema.AddConstraint(Constraint::NotNull("releases", "title"));
      schema.AddConstraint(Constraint::NotNull("releases", "artist"));
      schema.AddConstraint(Constraint::PrimaryKey(
          "release_tracks", {"release_id", "position"}));
      schema.AddConstraint(Constraint::ForeignKey(
          "release_tracks", {"release_id"}, "releases", {"release_id"}));
      schema.AddConstraint(Constraint::NotNull("release_tracks", "title"));
      schema.AddConstraint(Constraint::PrimaryKey("labels", {"label_id"}));
      schema.AddConstraint(Constraint::NotNull("labels", "name"));
      schema.AddConstraint(Constraint::Unique("labels", {"name"}));
      schema.AddConstraint(Constraint::PrimaryKey(
          "release_labels", {"release_id", "label_id"}));
      schema.AddConstraint(Constraint::ForeignKey(
          "release_labels", {"release_id"}, "releases", {"release_id"}));
      schema.AddConstraint(Constraint::ForeignKey(
          "release_labels", {"label_id"}, "labels", {"label_id"}));
      return schema;
    }
  }
  return Schema("music_unknown");
}

Result<Database> MakeMusicDatabase(MusicSchemaId id,
                                   const MusicOptions& options) {
  MusicPool pool = MakePool(options);
  EFES_ASSIGN_OR_RETURN(Database db,
                        Database::Create(MakeMusicSchema(id, options)));
  if (id == MusicSchemaId::kMusicbrainz && options.extended_lookups) {
    Random lookup_rng(options.seed * 17 + 3);
    for (const char* lookup : kExtendedLookups) {
      EFES_ASSIGN_OR_RETURN(Table * table, db.mutable_table(lookup));
      for (int64_t i = 0; i < 12; ++i) {
        EFES_RETURN_IF_ERROR(table->AppendRow(
            {Value::Integer(i + 1),
             Value::Text(Cap(lookup_rng.Word(4, 9))),
             lookup_rng.Bernoulli(0.3)
                 ? Value::Text(lookup_rng.Word(5, 12))
                 : Value::Null()}));
      }
    }
  }

  switch (id) {
    case MusicSchemaId::kFreedb: {
      EFES_ASSIGN_OR_RETURN(Table * discs, db.mutable_table("discs"));
      EFES_ASSIGN_OR_RETURN(Table * tracks, db.mutable_table("disc_tracks"));
      for (size_t d = 0; d < pool.discs.size(); ++d) {
        const DiscEntity& disc = pool.discs[d];
        EFES_RETURN_IF_ERROR(discs->AppendRow(
            {Value::Integer(static_cast<int64_t>(d + 1)),
             Value::Text(CombinedCredit(disc)), Value::Text(disc.title),
             Value::Integer(disc.year),
             Value::Text(pool.genres[disc.genre_index])}));
        for (const TrackEntity& track : disc.tracks) {
          EFES_RETURN_IF_ERROR(tracks->AppendRow(
              {Value::Integer(static_cast<int64_t>(d + 1)),
               Value::Integer(track.position), Value::Text(track.title),
               Value::Integer(track.length_ms / 1000)}));
        }
      }
      break;
    }
    case MusicSchemaId::kMusicbrainz: {
      EFES_ASSIGN_OR_RETURN(Table * artist, db.mutable_table("artist"));
      std::map<std::string, int64_t> artist_ids;
      for (size_t a = 0; a < pool.artist_pool.size(); ++a) {
        const std::string& name = pool.artist_pool[a];
        artist_ids[name] = static_cast<int64_t>(a + 1);
        // sort_name: "Last, First".
        size_t space = name.find(' ');
        std::string sort_name =
            name.substr(space + 1) + ", " + name.substr(0, space);
        EFES_RETURN_IF_ERROR(artist->AppendRow(
            {Value::Integer(static_cast<int64_t>(a + 1)), Value::Text(name),
             Value::Text(sort_name)}));
      }
      EFES_ASSIGN_OR_RETURN(Table * country, db.mutable_table("country"));
      for (size_t c = 0; c < pool.countries.size(); ++c) {
        EFES_RETURN_IF_ERROR(country->AppendRow(
            {Value::Integer(static_cast<int64_t>(c + 1)),
             Value::Text(pool.countries[c])}));
      }
      EFES_ASSIGN_OR_RETURN(Table * format, db.mutable_table("format"));
      for (size_t f = 0; f < pool.formats.size(); ++f) {
        EFES_RETURN_IF_ERROR(format->AppendRow(
            {Value::Integer(static_cast<int64_t>(f + 1)),
             Value::Text(pool.formats[f])}));
      }
      EFES_ASSIGN_OR_RETURN(Table * genre, db.mutable_table("genre"));
      for (size_t g = 0; g < pool.genres.size(); ++g) {
        EFES_RETURN_IF_ERROR(genre->AppendRow(
            {Value::Integer(static_cast<int64_t>(g + 1)),
             Value::Text(pool.genres[g])}));
      }
      EFES_ASSIGN_OR_RETURN(Table * label, db.mutable_table("label"));
      for (size_t l = 0; l < pool.labels.size(); ++l) {
        EFES_RETURN_IF_ERROR(label->AppendRow(
            {Value::Integer(static_cast<int64_t>(l + 1)),
             Value::Text(pool.labels[l])}));
      }

      EFES_ASSIGN_OR_RETURN(Table * artist_credit,
                            db.mutable_table("artist_credit"));
      EFES_ASSIGN_OR_RETURN(Table * artist_credit_name,
                            db.mutable_table("artist_credit_name"));
      EFES_ASSIGN_OR_RETURN(Table * release_group,
                            db.mutable_table("release_group"));
      EFES_ASSIGN_OR_RETURN(Table * release, db.mutable_table("release"));
      EFES_ASSIGN_OR_RETURN(Table * medium, db.mutable_table("medium"));
      EFES_ASSIGN_OR_RETURN(Table * track, db.mutable_table("track"));
      EFES_ASSIGN_OR_RETURN(Table * release_label,
                            db.mutable_table("release_label"));

      Random rng(options.seed * 31 + 5);
      std::map<std::string, int64_t> credit_ids;
      int64_t next_credit = 1;
      int64_t next_track = 1;
      for (size_t d = 0; d < pool.discs.size(); ++d) {
        const DiscEntity& disc = pool.discs[d];
        std::string credit_name = CombinedCredit(disc);
        auto [credit_it, inserted] =
            credit_ids.emplace(credit_name, next_credit);
        if (inserted) {
          EFES_RETURN_IF_ERROR(artist_credit->AppendRow(
              {Value::Integer(next_credit), Value::Text(credit_name)}));
          for (size_t position = 0; position < disc.artists.size();
               ++position) {
            EFES_RETURN_IF_ERROR(artist_credit_name->AppendRow(
                {Value::Integer(next_credit),
                 Value::Integer(static_cast<int64_t>(position + 1)),
                 Value::Integer(artist_ids[disc.artists[position]])}));
          }
          ++next_credit;
        }
        int64_t credit_id = credit_it->second;
        int64_t disc_id = static_cast<int64_t>(d + 1);
        EFES_RETURN_IF_ERROR(release_group->AppendRow(
            {Value::Integer(disc_id), Value::Text(disc.title),
             Value::Integer(credit_id),
             Value::Integer(disc.genre_index + 1)}));
        EFES_RETURN_IF_ERROR(release->AppendRow(
            {Value::Integer(disc_id), Value::Integer(disc_id),
             Value::Text(disc.title), Value::Text(IsoDate(disc)),
             Value::Integer(disc.country_index + 1)}));
        EFES_RETURN_IF_ERROR(medium->AppendRow(
            {Value::Integer(disc_id), Value::Integer(disc_id),
             Value::Integer(1),
             Value::Integer(
                 1 + static_cast<int64_t>(rng.UniformUint64(4)))}));
        for (const TrackEntity& t : disc.tracks) {
          EFES_RETURN_IF_ERROR(track->AppendRow(
              {Value::Integer(next_track++), Value::Integer(disc_id),
               Value::Integer(t.position), Value::Text(t.title),
               Value::Integer(t.length_ms)}));
        }
        EFES_RETURN_IF_ERROR(release_label->AppendRow(
            {Value::Integer(disc_id),
             Value::Integer(disc.label_index + 1)}));
      }
      break;
    }
    case MusicSchemaId::kDiscogs: {
      EFES_ASSIGN_OR_RETURN(Table * releases, db.mutable_table("releases"));
      EFES_ASSIGN_OR_RETURN(Table * release_tracks,
                            db.mutable_table("release_tracks"));
      EFES_ASSIGN_OR_RETURN(Table * labels, db.mutable_table("labels"));
      EFES_ASSIGN_OR_RETURN(Table * release_labels,
                            db.mutable_table("release_labels"));
      for (size_t l = 0; l < pool.labels.size(); ++l) {
        EFES_RETURN_IF_ERROR(labels->AppendRow(
            {Value::Integer(static_cast<int64_t>(l + 1)),
             Value::Text(pool.labels[l])}));
      }
      for (size_t d = 0; d < pool.discs.size(); ++d) {
        const DiscEntity& disc = pool.discs[d];
        int64_t release_id = static_cast<int64_t>(d + 1);
        EFES_RETURN_IF_ERROR(releases->AppendRow(
            {Value::Integer(release_id), Value::Text(disc.title),
             Value::Text(CombinedCredit(disc)), Value::Integer(disc.year),
             Value::Text(pool.countries[disc.country_index]),
             Value::Text(pool.genres[disc.genre_index])}));
        for (const TrackEntity& t : disc.tracks) {
          EFES_RETURN_IF_ERROR(release_tracks->AppendRow(
              {Value::Integer(release_id), Value::Integer(t.position),
               Value::Text(t.title), Value::Text(DurationText(t.length_ms))}));
        }
        EFES_RETURN_IF_ERROR(release_labels->AppendRow(
            {Value::Integer(release_id),
             Value::Integer(disc.label_index + 1)}));
      }
      break;
    }
  }
  return db;
}

Result<IntegrationScenario> MakeMusicScenario(MusicSchemaId source,
                                              MusicSchemaId target,
                                              const MusicOptions& options) {
  EFES_ASSIGN_OR_RETURN(Database source_db,
                        MakeMusicDatabase(source, options));
  MusicOptions target_options = options;
  target_options.seed = options.seed * 653 + 29;
  EFES_ASSIGN_OR_RETURN(Database target_db,
                        MakeMusicDatabase(target, target_options));

  CorrespondenceSet c;
  auto pair_id = std::make_pair(source, target);
  if (pair_id ==
      std::make_pair(MusicSchemaId::kFreedb, MusicSchemaId::kMusicbrainz)) {
    c.AddRelation("discs", "release");
    c.AddRelation("discs", "release_group");
    c.AddRelation("discs", "medium");
    c.AddRelation("discs", "artist");
    c.AddRelation("discs", "artist_credit");
    c.AddRelation("discs", "genre");
    c.AddRelation("disc_tracks", "track");
    c.AddAttribute("discs", "dtitle", "release", "title");
    c.AddAttribute("discs", "dtitle", "release_group", "title");
    c.AddAttribute("discs", "year", "release", "date");
    c.AddAttribute("discs", "artist", "artist", "name");
    c.AddAttribute("discs", "artist", "artist_credit", "name");
    c.AddAttribute("discs", "genre", "genre", "name");
    c.AddAttribute("disc_tracks", "title", "track", "title");
    c.AddAttribute("disc_tracks", "length_sec", "track", "length");
    c.AddAttribute("disc_tracks", "seq", "track", "position");
    c.AddAttribute("disc_tracks", "disc_id", "track", "medium");
  } else if (pair_id == std::make_pair(MusicSchemaId::kMusicbrainz,
                                       MusicSchemaId::kDiscogs)) {
    c.AddRelation("release", "releases");
    c.AddRelation("track", "release_tracks");
    c.AddRelation("label", "labels");
    c.AddRelation("release_label", "release_labels");
    c.AddAttribute("release", "title", "releases", "title");
    c.AddAttribute("artist_credit", "name", "releases", "artist");
    c.AddAttribute("release", "date", "releases", "released");
    c.AddAttribute("country", "name", "releases", "country");
    c.AddAttribute("genre", "name", "releases", "genre");
    c.AddAttribute("track", "title", "release_tracks", "title");
    c.AddAttribute("track", "length", "release_tracks", "duration");
    c.AddAttribute("track", "position", "release_tracks", "position");
    c.AddAttribute("track", "medium", "release_tracks", "release_id");
    c.AddAttribute("label", "name", "labels", "name");
    c.AddAttribute("release_label", "release", "release_labels",
                   "release_id");
    c.AddAttribute("release_label", "label", "release_labels", "label_id");
  } else if (pair_id == std::make_pair(MusicSchemaId::kMusicbrainz,
                                       MusicSchemaId::kFreedb)) {
    c.AddRelation("release", "discs");
    c.AddRelation("track", "disc_tracks");
    c.AddAttribute("release", "title", "discs", "dtitle");
    c.AddAttribute("artist_credit", "name", "discs", "artist");
    c.AddAttribute("release", "date", "discs", "year");
    c.AddAttribute("genre", "name", "discs", "genre");
    c.AddAttribute("track", "title", "disc_tracks", "title");
    c.AddAttribute("track", "length", "disc_tracks", "length_sec");
    c.AddAttribute("track", "position", "disc_tracks", "seq");
    c.AddAttribute("track", "medium", "disc_tracks", "disc_id");
  } else if (pair_id == std::make_pair(MusicSchemaId::kDiscogs,
                                       MusicSchemaId::kDiscogs)) {
    c.AddRelation("releases", "releases");
    c.AddRelation("release_tracks", "release_tracks");
    c.AddRelation("labels", "labels");
    c.AddRelation("release_labels", "release_labels");
    c.AddAttribute("releases", "release_id", "releases", "release_id");
    c.AddAttribute("releases", "title", "releases", "title");
    c.AddAttribute("releases", "artist", "releases", "artist");
    c.AddAttribute("releases", "released", "releases", "released");
    c.AddAttribute("releases", "country", "releases", "country");
    c.AddAttribute("releases", "genre", "releases", "genre");
    c.AddAttribute("release_tracks", "release_id", "release_tracks",
                   "release_id");
    c.AddAttribute("release_tracks", "position", "release_tracks",
                   "position");
    c.AddAttribute("release_tracks", "title", "release_tracks", "title");
    c.AddAttribute("release_tracks", "duration", "release_tracks",
                   "duration");
    c.AddAttribute("labels", "label_id", "labels", "label_id");
    c.AddAttribute("labels", "name", "labels", "name");
    c.AddAttribute("release_labels", "release_id", "release_labels",
                   "release_id");
    c.AddAttribute("release_labels", "label_id", "release_labels",
                   "label_id");
  } else {
    return Status::InvalidArgument(
        "no curated correspondences for music pair " +
        std::string(MusicSchemaIdToString(source)) + "-" +
        std::string(MusicSchemaIdToString(target)));
  }

  std::string name = std::string(MusicSchemaIdToString(source)) + "1-" +
                     std::string(MusicSchemaIdToString(target)) + "2";
  if (source == MusicSchemaId::kDiscogs && target == MusicSchemaId::kDiscogs) {
    name = "d1-d2";
  }
  IntegrationScenario scenario(name, std::move(target_db));
  scenario.AddSource(std::move(source_db), std::move(c));
  EFES_RETURN_IF_ERROR(scenario.Validate());
  return scenario;
}

Result<std::vector<IntegrationScenario>> MakeAllMusicScenarios(
    const MusicOptions& options) {
  std::vector<IntegrationScenario> scenarios;
  const std::pair<MusicSchemaId, MusicSchemaId> kPairs[] = {
      {MusicSchemaId::kFreedb, MusicSchemaId::kMusicbrainz},
      {MusicSchemaId::kMusicbrainz, MusicSchemaId::kDiscogs},
      {MusicSchemaId::kMusicbrainz, MusicSchemaId::kFreedb},
      {MusicSchemaId::kDiscogs, MusicSchemaId::kDiscogs},
  };
  for (const auto& [source, target] : kPairs) {
    EFES_ASSIGN_OR_RETURN(IntegrationScenario scenario,
                          MakeMusicScenario(source, target, options));
    scenarios.push_back(std::move(scenario));
  }
  return scenarios;
}

}  // namespace efes
